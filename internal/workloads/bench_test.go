package workloads

import "testing"

var tracedSink int

// BenchmarkAllKernelsTraced is the trace-production stage of the
// kernel-driven experiments: one op builds and runs all 18 kernels at
// seed 1 with tracing on.
func BenchmarkAllKernelsTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, k := range All() {
			n += MustRun(k.Build(1)).Trace.Len()
		}
		tracedSink = n
	}
}
