// Package simexec is the simulator-backed executor: jobs execute exactly like
// the in-process pool (one process, shared-memory exchanges), but the backend
// doubles as a planning oracle — the metrics a run records replay through the
// cluster model (internal/cluster) to predict how the same job would scale
// across W cooperating processes before ever paying for the real multi-process
// run. The mproc scaling experiment plots these predictions next to the
// measured curve.
package simexec

import (
	"runtime"
	"time"

	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/engine"
)

// Exec implements engine.Executor as a single-process backend with the
// simulator attached. Execution is identical to the in-process pool; only the
// Name differs, so experiment output can tell the planning run apart.
type Exec struct {
	slots int
}

// New returns a simulator-backed executor with the given task-slot
// parallelism (<1 selects GOMAXPROCS).
func New(slots int) *Exec {
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Exec{slots: slots}
}

// Name implements engine.Executor.
func (e *Exec) Name() string { return "sim" }

// Slots is the task-slot parallelism.
func (e *Exec) Slots() int { return e.slots }

// Procs is always 1: the oracle executes locally and predicts remotely.
func (e *Exec) Procs() int { return 1 }

// Rank is always 0.
func (e *Exec) Rank() int { return 0 }

// Failed never fires: single-process jobs cannot fail remotely.
func (e *Exec) Failed() <-chan struct{} { return nil }

// Err is always nil.
func (e *Exec) Err() error { return nil }

// Exchange returns the shared-memory bucket transport.
func (e *Exec) Exchange(_ uint64, in, out int) engine.Exchange {
	return engine.NewLocalExchange(in, out)
}

// Gather is the identity: one process owns every partition.
func (e *Exec) Gather(_ uint64, _ int, owned [][]byte) ([][]byte, error) {
	return owned, nil
}

// LocalConfig models the machine an mproc job actually runs on: W processes
// on one host, each with slots cores, buckets crossing process boundaries
// over loopback TCP. Loopback moves several GB/s and there is no disk in the
// shuffle path, so the per-"node" network share is high and disk is fast
// enough to never dominate.
func LocalConfig(procs, slots int) cluster.Config {
	if procs < 1 {
		procs = 1
	}
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	return cluster.Config{
		Nodes:        procs,
		CoresPerNode: slots,
		Disk:         cluster.DiskModel{BandwidthMBps: 2000, LatencyMs: 0.1},
		Net:          cluster.NetworkModel{BandwidthMBpsPerNode: 4000, LatencyUs: 20},
	}
}

// Prediction is one point of a predicted scaling curve.
type Prediction struct {
	Procs    int
	Cores    int
	Makespan time.Duration
	// Speedup is relative to the first (smallest) requested point.
	Speedup float64
}

// PredictScaling replays recorded metrics through the cluster model at each
// process count, with slots task slots per process — the oracle's answer to
// "what would -backend=mproc -procs=W buy?". Shuffle bytes that stay inside
// a process are still charged to the model's network (the model cannot see
// ownership), so predictions are conservative on transport cost.
func PredictScaling(m engine.Metrics, slots int, procs []int) []Prediction {
	tr := cluster.TraceFromMetrics(m, 1, 1)
	opt := cluster.SparkOptions()
	out := make([]Prediction, 0, len(procs))
	for _, w := range procs {
		if w < 1 {
			w = 1
		}
		cfg := LocalConfig(w, slots)
		res := cluster.Simulate(tr, cfg, w*cfg.CoresPerNode, opt)
		out = append(out, Prediction{Procs: w, Cores: res.Cores, Makespan: res.Makespan})
	}
	if len(out) > 0 && out[0].Makespan > 0 {
		base := out[0].Makespan
		for i := range out {
			if out[i].Makespan > 0 {
				out[i].Speedup = float64(base) / float64(out[i].Makespan)
			}
		}
	}
	return out
}
