package mproc

import (
	"github.com/gpf-go/gpf/internal/engine"
)

// Exec is the multi-process engine.Executor: one per rank, wrapping that
// rank's transport mesh. The engine cannot tell it from the in-process
// backend — shuffle buckets and gather blobs simply arrive through sockets
// instead of shared memory when their peer lives in a sibling process.
type Exec struct {
	t     *transport
	slots int
}

// Name implements engine.Executor.
func (e *Exec) Name() string { return "mproc" }

// Slots is this process's task-slot parallelism.
func (e *Exec) Slots() int { return e.slots }

// Procs is the number of cooperating processes.
func (e *Exec) Procs() int { return e.t.procs }

// Rank is this process's index; rank 0 is the driver.
func (e *Exec) Rank() int { return e.t.rank }

// Failed reports global job failure (remote error, lost worker).
func (e *Exec) Failed() <-chan struct{} { return e.t.failedCh }

// Err reports the failure cause.
func (e *Exec) Err() error { return e.t.Err() }

// Exchange returns the bucket transport for one shuffle stage. The state may
// already exist if a sibling rank raced ahead and its first bucket frame
// arrived before the local engine reached the stage.
func (e *Exec) Exchange(seq uint64, in, out int) engine.Exchange {
	if ex := e.t.exchangeFor(seq, in, out); ex != nil {
		return ex
	}
	// exchangeFor only refuses after failing the job (geometry violation);
	// hand back a stub whose Failed channel is already closed so the stage
	// unwinds through its normal abort path.
	return failedExchange{t: e.t}
}

// failedExchange is the Exchange returned once the job has already failed:
// publishes are dropped, Notify never fires, and Failed/Err report the cause.
type failedExchange struct{ t *transport }

func (fx failedExchange) Publish(int, int, []byte) {}
func (fx failedExchange) Notify(int) <-chan int    { return nil }
func (fx failedExchange) Block(int, int) []byte    { return nil }
func (fx failedExchange) Failed() <-chan struct{}  { return fx.t.failedCh }
func (fx failedExchange) Err() error               { return fx.t.Err() }
func (fx failedExchange) Close()                   {}

// Gather implements the action allgather: every rank contributes the blobs of
// the partitions it owns, the driver assembles the full set (its own blobs
// directly, the workers' via gather frames) and rebroadcasts it, and every
// rank returns the identical complete slice — which is what keeps the ranks'
// subsequent driver-side folds in lockstep.
func (e *Exec) Gather(seq uint64, n int, owned [][]byte) ([][]byte, error) {
	t := e.t
	if t.procs == 1 || n == 0 {
		return owned, nil
	}
	gs := t.gatherFor(seq, n)
	if t.rank == 0 {
		for p := 0; p < n; p++ {
			if p%t.procs == 0 {
				t.gatherStore(gs, p, owned[p])
			}
		}
	} else {
		for p := 0; p < n; p++ {
			if p%t.procs == t.rank {
				t.sendTo(0, frameGather, encodeGather(gatherMsg{seq: seq, n: n, p: p, blob: owned[p]}))
			}
		}
	}
	return gs.wait()
}
