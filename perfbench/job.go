package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"time"

	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/experiments"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

// jobName is the mproc job every workload runs: inproc workloads through
// mproc.Run with one process (the plain in-process pool), wgs-mproc with two
// ranks. One job body keeps the three workloads on one measured code path.
const jobName = "perfbench-pipeline"

func init() { mproc.RegisterJob(jobName, runJob) }

// jobSpec is what every rank receives; all ranks derive identical datasets
// and stage sequences from it.
type jobSpec struct {
	Scale     experiments.Scale
	CleanCall bool
	// Synthesize makes every rank build its own input, rank 0 included, so
	// multi-process ranks start level; in-process jobs reuse the cached one.
	Synthesize bool
	Trace      bool
}

// jobOutput is rank 0's answer: the VCF bytes plus the job's own timings.
type jobOutput struct {
	VCF []byte
	// Setup is the in-job input synthesis and index build (zero when the
	// cached input was used); Job is the whole job body.
	Setup, Job time.Duration
	// SetupAlloc is the bytes rank 0 allocated during Setup.
	SetupAlloc uint64
	// CollectStage is the index of the first engine stage that ran inside
	// core.CollectVCF, which forces the lazy caller stage.
	CollectStage int
	Spans        []span
}

// input is one synthesized workload input with its runtime (whose FM-index
// is built once) and, for clean-call, the aligner's records per partition.
type input struct {
	scale   experiments.Scale
	data    *workload.Dataset
	rt      *core.Runtime
	aligned [][]sam.Record
}

// cached holds the benchmark process's inputs for in-process jobs, set in
// setup before any job runs. mproc.Run calls the job on its caller's
// goroutine, so no lock is needed.
var cached []*input

func cachedInput(s experiments.Scale) *input {
	for _, in := range cached {
		if in.scale == s {
			return in
		}
	}
	return nil
}

// setupTimes are the parts of building an input.
type setupTimes struct {
	generate, index time.Duration
}

// newInput synthesizes the workload input for scale s and builds the index.
func newInput(s experiments.Scale, tr *tracer, parent int) (*input, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sp := tr.begin("workload.Make", parent)
	p := workload.DefaultProfile(workload.WGS, s.GenomeLen)
	p.Coverage = s.Coverage
	d := workload.Make(p, s.Seed)
	tr.end(sp)
	st.generate = time.Since(t0)

	rt := core.NewRuntime(engine.NewContext(s.Workers), d.Ref)
	rt.PartitionLen = s.PartitionLen
	rt.NumPartitions = s.NumPartitions
	rt.Known = d.Known
	t0 = time.Now()
	sp = tr.begin("Runtime.Index", parent)
	_, err := rt.Index()
	tr.end(sp)
	st.index = time.Since(t0)
	if err != nil {
		return nil, st, fmt.Errorf("index: %w", err)
	}
	return &input{scale: s, data: d, rt: rt}, st, nil
}

func runJob(ctx *engine.Context, specBytes []byte) ([]byte, error) {
	start := time.Now()
	var sp jobSpec
	if err := gob.NewDecoder(bytes.NewReader(specBytes)).Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: decode spec: %w", jobName, err)
	}
	tr := newTracer(sp.Trace)
	root := tr.begin("job", -1)
	out := jobOutput{}

	var in *input
	if !sp.Synthesize {
		if in = cachedInput(sp.Scale); in == nil {
			return nil, fmt.Errorf("%s: no input cached for seed %d", jobName, sp.Scale.Seed)
		}
	} else {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var err error
		if in, _, err = newInput(sp.Scale, tr, root); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		out.Setup = time.Since(start)
		out.SetupAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	}
	rt := in.rt
	rt.Engine = ctx

	var pipeline *core.Pipeline
	var result *core.VCFBundle
	if sp.CleanCall {
		s := tr.begin("buildCleanCall", root)
		var err error
		pipeline, result, err = buildCleanCall(rt, in.aligned)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	} else {
		s := tr.begin("core.PairsToRDD", root)
		pairs := core.PairsToRDD(rt, in.data.Pairs, rt.NumPartitions)
		tr.end(s)
		s = tr.begin("core.BuildWGSPipeline", root)
		wgs := core.BuildWGSPipeline(rt, pairs, false)
		tr.end(s)
		pipeline, result = wgs.Pipeline, wgs.VCF
	}
	s := tr.begin("Pipeline.Run", root)
	err := pipeline.Run()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if sp.Trace {
		out.CollectStage = ctx.Metrics().NumStages()
	}
	s = tr.begin("core.CollectVCF", root)
	calls, err := core.CollectVCF(rt, result)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("vcf.Write", root)
	var buf bytes.Buffer
	err = vcf.Write(&buf, result.Header, calls)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	out.VCF = buf.Bytes()
	out.Job = time.Since(start)
	out.Spans = tr.spans
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(out); err != nil {
		return nil, fmt.Errorf("%s: encode output: %w", jobName, err)
	}
	return enc.Bytes(), nil
}

// buildCleanCall is the WGS pipeline of core.BuildWGSPipeline with
// BwaMapping left out: already-aligned records enter MarkDuplicate in the
// aligner's partition order, so the VCF must equal the wgs workload's.
// The Process names match BuildWGSPipeline's so the ledger rows line up.
func buildCleanCall(rt *core.Runtime, aligned [][]sam.Record) (*core.Pipeline, *core.VCFBundle, error) {
	names := make([]string, rt.Ref.NumContigs())
	for i := range names {
		names[i] = rt.Ref.Contigs[i].Name
	}
	header, err := sam.NewHeader(sam.Unsorted, names, rt.Ref.Lengths())
	if err != nil {
		return nil, nil, err
	}
	recs := engine.WithCodec(engine.FromPartitions(rt.Engine, aligned), rt.SAMCodec())

	pipeline := core.NewPipeline("clean-call", rt)
	alignedSAM := core.DefinedSAM("alignedSam", header, recs)
	deduped := core.UndefinedSAM("dedupedSam", nil)
	pipeline.AddProcess(core.NewMarkDuplicateProcess("MarkDuplicate", alignedSAM, deduped))
	partInfo := core.UndefinedPartitionInfo("partitionInfo")
	pipeline.AddProcess(core.NewReadRepartitionerProcess("ReadRepartitioner", []*core.SAMBundle{deduped}, partInfo))
	realigned := core.UndefinedSAM("realignedSam", nil)
	pipeline.AddProcess(core.NewIndelRealignProcess("IndelRealign", partInfo, deduped, realigned))
	recaled := core.UndefinedSAM("recaledSam", nil)
	pipeline.AddProcess(core.NewBaseRecalibrationProcess("BaseRecalibration", partInfo, realigned, recaled))
	result := core.UndefinedVCF("ResultVCF", vcf.NewHeader(names, rt.Ref.Lengths(), "sample"))
	pipeline.AddProcess(core.NewHaplotypeCallerProcess("HaplotypeCaller", partInfo, recaled, result, false))
	return pipeline, result, nil
}

// alignInput runs BwaMapping alone through the engine and keeps its output
// per partition: the clean-call workload's input. It returns the engine
// metrics of that run for the align ledger rows.
func alignInput(in *input, slots int) (engine.Metrics, error) {
	rt := in.rt
	rt.Engine = engine.NewContext(slots)
	pairs := core.PairsToRDD(rt, in.data.Pairs, rt.NumPartitions)
	aligned := core.UndefinedSAM("alignedSam", nil)
	p := core.NewPipeline("align", rt)
	p.AddProcess(core.NewBwaMemProcess("BwaMapping", core.DefinedFASTQPair("fastqPair", pairs), aligned))
	if err := p.Run(); err != nil {
		return engine.Metrics{}, err
	}
	if err := aligned.Data.Force(); err != nil {
		return engine.Metrics{}, err
	}
	// Metrics before the capture stage, which is the benchmark's own.
	m := rt.Engine.Metrics()
	parts := make([][]sam.Record, aligned.Data.NumPartitions())
	capture, err := engine.MapPartitions("capture", aligned.Data, nil,
		func(p int, recs []sam.Record) ([]struct{}, error) {
			parts[p] = append([]sam.Record(nil), recs...)
			return nil, nil
		})
	if err != nil {
		return engine.Metrics{}, err
	}
	if _, err := engine.Count("capture/count", capture); err != nil {
		return engine.Metrics{}, err
	}
	in.aligned = parts
	return m, nil
}
