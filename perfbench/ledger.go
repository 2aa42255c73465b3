package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// ledgerRow is one Process's share of a run, summed over the engine stages
// attributed to it.
type ledgerRow struct {
	Process string `json:"process"`
	// Stages keeps each attributed stage's full name, so a fused stage
	// shows every op it ran.
	Stages    []string      `json:"stages"`
	Tasks     int           `json:"tasks"`
	TaskTime  time.Duration `json:"task_ns"`
	MaxTask   time.Duration `json:"max_task_ns"`
	Codec     time.Duration `json:"codec_ns"`
	FetchWait time.Duration `json:"fetch_wait_ns"`
	Driver    time.Duration `json:"driver_ns"`
	GCPause   time.Duration `json:"gc_pause_ns"`
}

// processOf names the Process a stage belongs to. Stage names are
// "Process/op", and a fused stage joins its ops with "+" in execution order
// ("BaseRecalibration/apply-recalibration+HaplotypeCaller/haplotype-caller"):
// the stage goes to the Process of its last op, whose output it produces.
// Stages that read a resource back to rank 0 are named after the resource
// ("ResultVCF/collect") and form rows of their own.
func processOf(stage string) string {
	last := stage[strings.LastIndexByte(stage, '+')+1:]
	if i := strings.IndexByte(last, '/'); i >= 0 {
		return last[:i]
	}
	return last
}

// attribute folds engine stages into per-Process rows, in order of first
// appearance. Every stage lands in exactly one row.
func attribute(m engine.Metrics) []ledgerRow {
	var rows []ledgerRow
	index := map[string]int{}
	for i := range m.Stages {
		st := &m.Stages[i]
		p := processOf(st.Name)
		j, ok := index[p]
		if !ok {
			j = len(rows)
			index[p] = j
			rows = append(rows, ledgerRow{Process: p})
		}
		r := &rows[j]
		r.Stages = append(r.Stages, st.Name)
		r.Tasks += len(st.Tasks)
		r.TaskTime += st.TaskTime()
		r.MaxTask = max(r.MaxTask, st.MaxTaskTime())
		r.Codec += st.SerializeTime()
		r.FetchWait += st.FetchWait()
		r.Driver += st.DriverTime
		r.GCPause += st.GCPause
	}
	return rows
}

// checkAttribution is the ledger's self-test: every stage is attributed
// exactly once and the rows' task time sums to the engine's total.
func checkAttribution(m engine.Metrics, rows []ledgerRow) error {
	seen := 0
	var sum time.Duration
	for _, r := range rows {
		seen += len(r.Stages)
		sum += r.TaskTime
	}
	if seen != len(m.Stages) {
		return fmt.Errorf("ledger: %d stages attributed, engine recorded %d", seen, len(m.Stages))
	}
	if total := m.TotalTaskTime(); sum != total {
		return fmt.Errorf("ledger: attributed task time %v, engine total %v", sum, total)
	}
	return nil
}

func rowOf(rows []ledgerRow, process string) ledgerRow {
	for _, r := range rows {
		if r.Process == process {
			return r
		}
	}
	return ledgerRow{Process: process}
}

// callerStage is the HaplotypeCaller stage with the most task time: the
// stage whose slowest partition the per-partition skew describes.
func callerStage(m engine.Metrics) *engine.StageMetrics {
	var best *engine.StageMetrics
	for i := range m.Stages {
		st := &m.Stages[i]
		if processOf(st.Name) == "HaplotypeCaller" && (best == nil || st.TaskTime() > best.TaskTime()) {
			best = st
		}
	}
	return best
}

// iterationLayers is one traced pipeline run's per-layer metrics: engine
// records from Metrics(), job spans, and the benchmark's own measurements.
func iterationLayers(m engine.Metrics, rows []ledgerRow, out *jobOutput, runWall time.Duration, slots int, gcCycles uint32) map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	pipelineWall := out.Job - out.Setup
	v := map[string]float64{
		"cleaner.markdup_s":         sec(rowOf(rows, "MarkDuplicate").TaskTime),
		"cleaner.realign_s":         sec(rowOf(rows, "IndelRealign").TaskTime),
		"cleaner.bqsr_s":            sec(rowOf(rows, "BaseRecalibration").TaskTime),
		"caller.hc_s":               sec(rowOf(rows, "HaplotypeCaller").TaskTime),
		"core.repartition_s":        sec(rowOf(rows, "ReadRepartitioner").TaskTime),
		"engine.stages":             float64(m.NumStages()),
		"engine.fused_ops":          float64(m.TotalFusedOps()),
		"engine.task_s":             sec(m.TotalTaskTime()),
		"engine.slot_idle_s":        sec(time.Duration(slots)*pipelineWall - m.TotalTaskTime()),
		"engine.decoded_mb":         float64(m.TotalDecodedBytes()) / 1e6,
		"engine.pruning_ratio":      m.PruningRatio(),
		"engine.driver_s":           sec(m.TotalDriverTime()),
		"engine.gc_pause_s":         sec(m.TotalGCPause()),
		"engine.fetch_wait_s":       sec(m.TotalFetchWait()),
		"engine.pipeline_overlap_s": sec(m.TotalPipelineOverlap()),
		"mproc.startup_s":           sec(runWall - out.Job),
		"mproc.job_s":               sec(out.Job),
		"runtime.gc_cycles":         float64(gcCycles),
	}
	var tasks int
	var codec time.Duration
	var shuffleWrite int64
	for i := range m.Stages {
		st := &m.Stages[i]
		tasks += len(st.Tasks)
		codec += st.SerializeTime()
		shuffleWrite += st.ShuffleWriteBytes()
	}
	v["engine.tasks"] = float64(tasks)
	v["engine.codec_s"] = sec(codec)
	v["engine.shuffle_write_mb"] = float64(shuffleWrite) / 1e6
	if align := rowOf(rows, "BwaMapping"); align.Tasks > 0 {
		v["align.task_s"] = sec(align.TaskTime)
		v["align.max_task_s"] = sec(align.MaxTask)
	}
	if st := callerStage(m); st != nil && len(st.Tasks) > 0 {
		v["core.genomic_partitions"] = float64(len(st.Tasks))
		mean := st.TaskTime().Seconds() / float64(len(st.Tasks))
		if mean > 0 {
			v["core.partition_skew"] = st.MaxTaskTime().Seconds() / mean
		}
	}
	for _, s := range out.Spans {
		switch s.Name {
		case "core.CollectVCF":
			v["vcf.collect_s"] = float64(s.End-s.Start) / 1e9
		case "vcf.Write":
			v["vcf.write_s"] = float64(s.End-s.Start) / 1e9
		}
	}
	return v
}
