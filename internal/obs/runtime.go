package obs

// Runtime sampler: a periodic snapshot of the Go runtime's health —
// goroutine count, heap, GC activity — published as ordinary registry
// gauges so they ride the existing /metrics scrape and the debug-state
// snapshot for free. ReadMemStats stops the world briefly, so a caller
// samples on its own ticker (qschedd's server sampler) rather than per
// scrape; readers see values at most one interval stale.

import "runtime"

// Runtime gauge names published by SampleRuntime.
const (
	GaugeGoroutines   = "runtime.goroutines"
	GaugeHeapAlloc    = "runtime.heap_alloc_bytes"
	GaugeHeapSys      = "runtime.heap_sys_bytes"
	GaugeGCCount      = "runtime.gc_count"
	GaugeGCPauseTotal = "runtime.gc_pause_total_ns"
	GaugeGCPauseLast  = "runtime.gc_pause_last_ns"
)

// SampleRuntime takes one snapshot of the runtime into r's gauges. It
// is what a periodic sampler calls each tick; tests and one-shot tools
// can call it directly. A nil registry no-ops.
func SampleRuntime(r *Registry) {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge(GaugeGoroutines).Set(int64(runtime.NumGoroutine()))
	r.Gauge(GaugeHeapAlloc).Set(int64(ms.HeapAlloc))
	r.Gauge(GaugeHeapSys).Set(int64(ms.HeapSys))
	r.Gauge(GaugeGCCount).Set(int64(ms.NumGC))
	r.Gauge(GaugeGCPauseTotal).Set(int64(ms.PauseTotalNs))
	if ms.NumGC > 0 {
		r.Gauge(GaugeGCPauseLast).Set(int64(ms.PauseNs[(ms.NumGC+255)%256]))
	}
}
