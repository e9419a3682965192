package stream_test

import (
	"testing"

	"streamdag"
	"streamdag/internal/stream"
)

// BenchmarkFireOnce is the per-element firing layer with a library
// kernel (MapKernel, which has the engine's out-slice form) and with a
// user KernelFunc, which pays one map per firing through the adapter.
func BenchmarkFireOnce(b *testing.B) {
	ident := func(v any) any { return v }
	b.Run("MapKernel", func(b *testing.B) {
		stream.FireOnceBench(b, streamdag.MapKernel(1, ident))
	})
	b.Run("KernelFunc", func(b *testing.B) {
		stream.FireOnceBench(b, stream.KernelFunc(func(_ uint64, in []stream.Input) map[int]any {
			return map[int]any{0: in[0].Payload}
		}))
	})
}
