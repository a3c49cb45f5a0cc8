// Command perfbench is the repository's compile benchmark. It runs one
// named workload for a fixed time, checks every compiled output against
// pinned results and the verify.Full legality oracle, and prints one
// JSON result line last:
//
//	bash perfbench/run.sh --workload ladder --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// instead drives each layer's public functions directly and reports
// per-layer metrics. README.md in this directory lists the workloads
// and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// units gives every metric the benchmark can report its unit.
var units = map[string]string{
	"setup_s": "s", "compile_s": "s", "warm_ms": "ms", "alloc_mb": "MB",
	"peak_heap_mb": "MB", "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
}

// endToEnd is the --trace 0 metric set, in print order.
var endToEnd = []string{"setup_s", "compile_s", "warm_ms", "alloc_mb", "peak_heap_mb", "req_p50_ms", "req_p90_ms", "req_per_s"}

// run is one benchmark run's state and findings.
type run struct {
	workload string
	dir      string // this benchmark's directory (pins)
	scratch  string // per-run scratch directory, removed at exit
	seed     int64
	seconds  time.Duration
	pins     *pins

	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// check counts one checked operation, failed when err is non-nil.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		}
	}
}

func (r *run) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func main() {
	workload := flag.String("workload", "", "ladder, suite or service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", "perfbench", "benchmark directory holding "+pinFile)
	scratch := flag.String("scratch", ".bench_build", "directory for per-run scratch files")
	pin := flag.Bool("write-pins", false, "record the expected outputs into "+pinFile+" and exit")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *dir, *scratch, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds int, traced bool, dir, scratch string, pin bool) error {
	start := time.Now()
	if pin {
		return writePins(dir)
	}
	p, err := loadPins(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	// Flush the scratch files' removal before exiting, so the journal
	// work it leaves does not slow the next run's set-up.
	defer syscall.Sync()
	defer os.RemoveAll(tmp)
	r := &run{workload: workload, scratch: tmp, seed: seed, seconds: time.Duration(seconds) * time.Second, pins: p, metrics: map[string]float64{}}
	heap := startHeapSampler(5 * time.Millisecond)
	err = r.dispatch(workload, traced)
	peak := heap.stop()
	if err != nil {
		return err
	}
	if !traced {
		r.metrics["peak_heap_mb"] = peak
	}
	fmt.Printf("# host %s\n", hostFacts())
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%t wall_s=%.1f\n", workload, seed, seconds, traced, time.Since(start).Seconds())
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := map[string]any{}
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		fmt.Printf("%-26s %14.4f %s\n", n, v, unitOf(n))
		out[n] = map[string]any{"value": v, "unit": unitOf(n)}
	}
	fmt.Printf("%-26s %14.4f ratio (%d failed of %d attempted)\n", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	b, err := json.Marshal(map[string]any{
		"correct": r.failed == 0 && r.attempted > 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if r.failed > 0 || r.attempted == 0 {
		return fmt.Errorf("%d of %d checked operations failed", r.failed, r.attempted)
	}
	return nil
}

func (r *run) dispatch(workload string, traced bool) error {
	switch workload {
	case "ladder":
		if traced {
			return r.traced(ladderPrograms, ladderCfgs, false)
		}
		return r.batch(ladderPrograms, ladderCfgs)
	case "suite":
		if traced {
			return r.traced(gatedPrograms, suiteCfgs, false)
		}
		return r.batch(gatedPrograms, suiteCfgs)
	case "service":
		if traced {
			return r.traced(gatedPrograms, serviceCfgs(), true)
		}
		return r.service()
	}
	return fmt.Errorf("unknown workload %q (want ladder, suite or service)", workload)
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	return layerUnit(name)
}

// hostFacts names the host class results belong to; wall times compare
// only within one class.
func hostFacts() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// scratchDir makes a fresh directory under the run's scratch space.
func (r *run) scratchDir(name string) (string, error) {
	d := filepath.Join(r.scratch, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
