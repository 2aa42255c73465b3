package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/cleaner"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/experiments"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
)

// result is one benchmark run, as written under .bench_build/results.
type result struct {
	Machine   machineBlock `json:"machine"`
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Trace     bool         `json:"trace"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Problems  []string     `json:"problems,omitempty"`
	// Accuracy pools the per-class counts of the first scoredInputs inputs.
	Accuracy map[string]counts  `json:"accuracy"`
	Inputs   []inputResult      `json:"inputs"`
	Metrics  map[string]float64 `json:"metrics"`
	Ledger   []ledgerRow        `json:"ledger,omitempty"`
}

// counts is one variant class's vcf.Compare outcome.
type counts struct {
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// summary is the last stdout line. An untraced run reports the end-to-end
// metrics, a traced run the per-layer ones.
func (r *result) summary() map[string]any {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metricValue{}
	for k, v := range r.Metrics {
		if slices.Contains(endToEnd, k) != r.Trace {
			ms[k] = metricValue{Value: v, Unit: units[k]}
		}
	}
	return map[string]any{"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// iteration is one pipeline run as the benchmark process sees it.
type iteration struct {
	out     jobOutput
	metrics engine.Metrics
	start   time.Time
	runWall time.Duration
	// wall is runWall less the job's own input synthesis (multi-process
	// ranks synthesize in-job; in-process jobs reuse the cached input).
	wall     time.Duration
	alloc    uint64
	gcCycles uint32
}

func runIteration(w workloadSpec, spec jobSpec) (*iteration, error) {
	var specBuf bytes.Buffer
	if err := gob.NewEncoder(&specBuf).Encode(spec); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := mproc.Run(jobName, specBuf.Bytes(), mproc.Options{Procs: w.procs, Slots: w.slots})
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	it := &iteration{metrics: res.Metrics, start: start, runWall: wall, gcCycles: ms1.NumGC - ms0.NumGC}
	if err := gob.NewDecoder(bytes.NewReader(res.Output)).Decode(&it.out); err != nil {
		return nil, fmt.Errorf("decode job output: %w", err)
	}
	it.wall = wall - it.out.Setup
	it.alloc = ms1.TotalAlloc - ms0.TotalAlloc - it.out.SetupAlloc
	return it, nil
}

// setupOnce builds one cached input: synthesis and index build, plus the
// aligner's records on clean-call. It returns setup_s and the setup-side
// layer metrics.
func setupOnce(cfg config, scale experiments.Scale, tr *tracer) (*input, map[string]float64, error) {
	runtime.GC()
	root := tr.begin("setup", -1)
	t0 := time.Now()
	in, st, err := newInput(scale, tr, root)
	if err != nil {
		return nil, nil, err
	}
	v := map[string]float64{
		"input.generate_s":    st.generate.Seconds(),
		"align.index_build_s": st.index.Seconds(),
	}
	if cfg.workload.cleanCall {
		sp := tr.begin("align pipeline", root)
		m, err := alignInput(in, cfg.workload.slots)
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("setup alignment: %w", err)
		}
		r := rowOf(attribute(m), "BwaMapping")
		v["align.task_s"] = r.TaskTime.Seconds()
		v["align.max_task_s"] = r.MaxTask.Seconds()
	}
	v["setup_s"] = time.Since(t0).Seconds()
	tr.end(root)
	return in, v, nil
}

// inputScale is input i of a run's batch. Input 0 is the run's seed itself;
// the others are spaced far enough apart that no two runs with small seeds
// share an input (workload.Make consumes seed..seed+3).
func inputScale(cfg config, i int) experiments.Scale {
	s := cfg.scale
	s.Seed += int64(i) * 1_000_000
	return s
}

// inputResult is one input's VCF identity and accuracy within a run.
type inputResult struct {
	Seed     int64             `json:"seed"`
	Digest   string            `json:"vcf_sha256"`
	Calls    int               `json:"calls"`
	Accuracy map[string]counts `json:"accuracy"`
	// Walls are this input's untraced pipeline times, in seconds.
	Walls []float64 `json:"walls_s"`
}

func run(cfg config, logw io.Writer) (*result, error) {
	res := &result{
		Machine:  machineInfo(cfg.root),
		Workload: cfg.workload.name,
		Seed:     cfg.scale.Seed,
		Trace:    cfg.trace,
		Metrics:  map[string]float64{},
	}
	tr := newTracer(cfg.trace)
	samples := map[string][]float64{}
	add := func(v map[string]float64) {
		for k, x := range v {
			samples[k] = append(samples[k], x)
		}
	}

	// Setup: one per input, so setup_s is a median over the batch.
	inputs := make([]*input, cfg.inputs)
	for i := range inputs {
		t := newTracer(cfg.trace && i == 0)
		in, v, err := setupOnce(cfg, inputScale(cfg, i), t)
		if err != nil {
			return nil, err
		}
		tr.adopt(t.spans, -1)
		add(v)
		inputs[i] = in
	}
	cached = inputs
	defer func() { cached = nil }()
	res.Inputs = make([]inputResult, len(inputs))
	slotsTotal := cfg.workload.procs * cfg.workload.slots

	// check holds one pipeline run's VCF to its input's: the first run of an
	// input fixes its digest (and must match the one recorded by any other
	// workload at that seed) and scores its accuracy; every repeat must
	// reproduce the digest.
	check := func(i int, it *iteration) error {
		d := digestOf(it.out.VCF)
		ir := &res.Inputs[i]
		if ir.Digest != "" {
			if d != ir.Digest {
				return fmt.Errorf("input %d: VCF digest %s differs from its first run's %s", i, d, ir.Digest)
			}
			return nil
		}
		ir.Seed, ir.Digest = inputs[i].scale.Seed, d
		_, calls, err := vcf.Read(bytes.NewReader(it.out.VCF))
		if err != nil {
			return fmt.Errorf("input %d: parse VCF: %w", i, err)
		}
		ir.Calls = len(calls)
		ir.Accuracy = accuracy(calls, inputs[i].data.TruthVCF())
		return checkDigestRecord(cfg, ir.Seed, d, res.Machine.Source)
	}
	spec := func(i int, traced bool) jobSpec {
		return jobSpec{Scale: inputs[i].scale, CleanCall: cfg.workload.cleanCall,
			Synthesize: cfg.workload.procs > 1, Trace: traced}
	}

	// peak_rss_mb is meant for the pipelines, not for setup's garbage:
	// return freed memory to the OS, then restart the kernel's resident-set
	// high-water mark (Linux: 5 > /proc/self/clear_refs). Where the reset is
	// refused the peak covers the whole process.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	// Warm-up on input 0 lets lazy set-up finish before anything is timed.
	res.Attempted++
	if warm, err := runIteration(cfg.workload, spec(0, false)); err != nil {
		res.Failed++
		res.problem("warm-up: %v", err)
	} else if err := check(0, warm); err != nil {
		res.Failed++
		res.problem("warm-up: %v", err)
	}

	// The timed loop cycles through the inputs until the time is up and
	// every input has run. A traced run runs each input twice in a row,
	// untraced then traced, so the tracing overhead compares like with like.
	per := 1
	if cfg.trace {
		per = 2
	}
	var walls, allocs, tracedWalls []float64
	var rows []stageRow
	start := time.Now()
	for n := 0; n < per*len(inputs) || time.Since(start).Seconds() < cfg.seconds; n++ {
		i := (n / per) % len(inputs)
		traced := cfg.trace && n%2 == 1
		res.Attempted++
		it, err := runIteration(cfg.workload, spec(i, traced))
		if err == nil {
			err = check(i, it)
		}
		if err != nil {
			res.Failed++
			res.problem("run %d: %v", n, err)
			continue
		}
		if !traced {
			res.Inputs[i].Walls = append(res.Inputs[i].Walls, it.wall.Seconds())
			walls = append(walls, it.wall.Seconds())
			allocs = append(allocs, float64(it.alloc)/1e6)
			continue
		}
		tracedWalls = append(tracedWalls, it.wall.Seconds())
		ledger := attribute(it.metrics)
		if err := checkAttribution(it.metrics, ledger); err != nil {
			res.Failed++
			res.problem("run %d: %v", n, err)
			continue
		}
		res.Ledger = ledger
		v := iterationLayers(it.metrics, ledger, &it.out, it.runWall, slotsTotal, it.gcCycles)
		if cfg.workload.cleanCall {
			// clean-call's aligner ran in setup; its align rows come from there.
			delete(v, "align.task_s")
			delete(v, "align.max_task_s")
		}
		add(v)
		itSpan := tr.add(fmt.Sprintf("mproc.Run #%d", n), -1, it.start.UnixNano(), it.start.Add(it.runWall).UnixNano())
		base := len(tr.spans)
		tr.adopt(it.out.Spans, itSpan)
		rows = stageRows(rows, it, base)
	}

	// Accuracy pools the scored inputs' counts per class.
	pooled := map[string]counts{}
	calls := 0
	scored := res.Inputs[:min(scoredInputs, len(res.Inputs))]
	for _, ir := range scored {
		calls += ir.Calls
		for class, c := range ir.Accuracy {
			p := pooled[class]
			p.TP, p.FP, p.FN = p.TP+c.TP, p.FP+c.FP, p.FN+c.FN
			pooled[class] = p
		}
	}
	res.Accuracy = pooled
	snv, indel := pooled["snv"], pooled["indel"]
	res.Metrics["snv_precision"] = ratio(snv.TP, snv.TP+snv.FP)
	res.Metrics["snv_recall"] = ratio(snv.TP, snv.TP+snv.FN)
	// A VCF can repeat exactly and still be wrong. These floors sit well
	// below every batch measured when the benchmark was written (pooled SNV
	// precision ≥ 0.99, recall ≥ 0.8), so only a broken pipeline trips them.
	if res.Metrics["snv_precision"] < 0.9 || res.Metrics["snv_recall"] < 0.6 {
		res.problem("SNV accuracy below floor: %+v", snv)
	}
	res.Metrics["setup_s"] = median(samples["setup_s"])
	delete(samples, "setup_s")
	res.Metrics["wall_s"] = median(walls)
	res.Metrics["alloc_mb"] = median(allocs)

	if cfg.trace {
		v, err := alignSweep(inputs[0], tr)
		if err != nil {
			return nil, err
		}
		add(v)
		samples["caller.calls"] = []float64{float64(calls) / float64(len(scored))}
		samples["caller.indel_precision"] = []float64{ratio(indel.TP, indel.TP+indel.FP)}
		samples["caller.indel_recall"] = []float64{ratio(indel.TP, indel.TP+indel.FN)}
		if len(tracedWalls) > 0 && len(walls) > 0 {
			samples["trace.overhead_s"] = []float64{median(tracedWalls) - median(walls)}
		}
		for k, xs := range samples {
			res.Metrics[k] = median(xs)
		}
		path := filepath.Join(cfg.stateDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload.name, cfg.scale.Seed))
		if err := writeTrace(path, tr.spans, rows, res.Machine); err != nil {
			return nil, err
		}
		fmt.Fprintln(logw, "perfbench: trace written to", path)
	}
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	for _, name := range missingMetrics(res) {
		res.problem("metric %s not measured", name)
	}
	if err := writeResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// stageRows hangs one traced run's engine stages under the job span that ran
// them: core.CollectVCF for the stages it forced, Pipeline.Run for the rest.
// base is the tracer ID of the run's first job span.
func stageRows(rows []stageRow, it *iteration, base int) []stageRow {
	parent := map[string]int{}
	for i, s := range it.out.Spans {
		parent[s.Name] = base + i
	}
	for i, st := range it.metrics.Stages {
		p := parent["Pipeline.Run"]
		if i >= it.out.CollectStage {
			p = parent["core.CollectVCF"]
		}
		rows = append(rows, stageRow{Parent: p, Track: i, Stage: st, Process: processOf(st.Name)})
	}
	return rows
}

// alignSweep times align.Aligner.AlignPair directly over every input pair on
// one goroutine, and measures from its records the mapped fraction and,
// with cleaner.MarkDuplicates, the duplicate fraction.
func alignSweep(in *input, tr *tracer) (map[string]float64, error) {
	idx, err := in.rt.Index()
	if err != nil {
		return nil, err
	}
	a := align.NewAligner(idx, in.rt.AlignerConfig)
	pairs := in.data.Pairs
	recs := make([]sam.Record, 0, 2*len(pairs))
	sp := tr.begin("align.Aligner.AlignPair sweep", -1)
	t0 := time.Now()
	for i := range pairs {
		r1, r2 := a.AlignPair(&pairs[i])
		recs = append(recs, r1, r2)
	}
	d := time.Since(t0)
	tr.end(sp)
	mapped := 0
	for i := range recs {
		if !recs[i].Unmapped() {
			mapped++
		}
	}
	sp = tr.begin("cleaner.MarkDuplicates", -1)
	cleaner.SortByCoordinate(recs)
	dups := cleaner.MarkDuplicates(recs)
	tr.end(sp)
	return map[string]float64{
		"align.us_per_pair": float64(d.Microseconds()) / float64(len(pairs)),
		"align.mapped_frac": ratio(mapped, len(recs)),
		"cleaner.dup_frac":  ratio(dups, len(recs)),
	}, nil
}

// accuracy scores calls against the truth per variant class. A record is an
// SNV when both alleles are one base; every other record is an indel.
func accuracy(calls, truth []vcf.Record) map[string]counts {
	split := func(rs []vcf.Record) (snv, indel []vcf.Record) {
		for _, r := range rs {
			if len(r.Ref) == 1 && len(r.Alt) == 1 {
				snv = append(snv, r)
			} else {
				indel = append(indel, r)
			}
		}
		return snv, indel
	}
	cs, ci := split(calls)
	ts, ti := split(truth)
	out := map[string]counts{}
	for class, pair := range map[string][2][]vcf.Record{"snv": {cs, ts}, "indel": {ci, ti}} {
		st := vcf.Compare(pair[0], pair[1], posTolerance)
		out[class] = counts{TP: st.TruePositive, FP: st.FalsePositive, FN: st.FalseNegative}
	}
	return out
}

// checkDigestRecord holds the VCF digest equal across workloads: the first
// run of a seed on this code records its digest, and every later run of any
// workload at that seed must match it.
func checkDigestRecord(cfg config, seed int64, digest, source string) error {
	dir := filepath.Join(cfg.stateDir, "digests")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.sha256", source, seed))
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if want := strings.TrimSpace(string(b)); want != digest {
			return fmt.Errorf("VCF digest %s differs from %s recorded for seed %d", digest, want, seed)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(digest+"\n"), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}

// missingMetrics lists metrics the run should print but did not measure.
func missingMetrics(res *result) []string {
	var out []string
	for name := range units {
		if slices.Contains(endToEnd, name) == res.Trace {
			continue
		}
		if _, ok := res.Metrics[name]; !ok {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

func writeResult(cfg config, res *result) error {
	dir := filepath.Join(cfg.stateDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, map[bool]int{false: 0, true: 1}[res.Trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// peakRSSMB is the larger of this process's resident-set high-water mark
// and that of the largest child it has waited for (on wgs-mproc, the other
// rank).
func peakRSSMB() float64 {
	var children syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children)
	return float64(max(vmHWMKiB(), children.Maxrss)) / 1024
}

// vmHWMKiB is VmHWM from /proc/self/status (since the last reset), or the
// process's lifetime peak from getrusage where that file is unreadable.
func vmHWMKiB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib int64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d kB", &kib); err == nil {
					return kib
				}
			}
		}
	}
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	return self.Maxrss // KiB on Linux
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
