package zmesh

// Shared dataset for the in-package pipeline benchmarks (parallel_test.go,
// telemetry_integration_test.go). Built straight from internal/sim: this
// package cannot use the experiments suite, because internal/experiments
// imports the public API for the T16 comparison.

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

var (
	pipelineOnce sync.Once
	pipelineCk   *sim.Checkpoint
	pipelineErr  error
)

// pipelineData returns the sedov benchmark checkpoint (128² solve, depth-3
// hierarchy) and its density field.
func pipelineData(b *testing.B) (*Checkpoint, *Field) {
	b.Helper()
	pipelineOnce.Do(func() {
		opt := sim.DefaultCheckpointOptions()
		opt.Resolution = 128
		opt.MaxDepth = 3
		pipelineCk, pipelineErr = sim.GenerateCheckpoint("sedov", opt)
	})
	if pipelineErr != nil {
		b.Fatal(pipelineErr)
	}
	f, ok := pipelineCk.Field("dens")
	if !ok {
		b.Fatal("dens missing")
	}
	return pipelineCk, f
}
