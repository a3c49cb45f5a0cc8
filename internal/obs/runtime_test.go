package obs

import "testing"

func TestSampleRuntime(t *testing.T) {
	r := NewRegistry()
	SampleRuntime(r)
	if got := r.Gauge(GaugeGoroutines).Value(); got < 1 {
		t.Errorf("goroutines = %d, want >= 1", got)
	}
	if got := r.Gauge(GaugeHeapAlloc).Value(); got <= 0 {
		t.Errorf("heap_alloc = %d, want > 0", got)
	}
	if got := r.Gauge(GaugeHeapSys).Value(); got <= 0 {
		t.Errorf("heap_sys = %d, want > 0", got)
	}
	SampleRuntime(nil) // must not panic
}
