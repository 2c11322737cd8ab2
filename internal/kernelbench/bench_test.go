package kernelbench

import "testing"

// BenchmarkKernel runs the shared kernel suite under `go test -bench`:
//
//	go test -bench BenchmarkKernel -benchmem ./internal/kernelbench
func BenchmarkKernel(b *testing.B) {
	for _, bench := range Suite() {
		b.Run(bench.Name, bench.Run)
	}
}
