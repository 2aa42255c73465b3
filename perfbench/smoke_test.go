package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/experiments"
)

func TestMain(m *testing.M) {
	// wgs-mproc re-execs this test binary as its second rank.
	mproc.WorkerMaybe()
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json and the code to one list
// of workloads and metrics with one unit each.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(names), len(workloads))
	}
	seen := map[string]bool{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, code unit %q", m.Name, m.Unit, units[m.Name])
		}
		seen[m.Name] = true
	}
	for _, m := range bf.EndToEnd {
		if !slices.Contains(endToEnd, m.Name) {
			t.Errorf("end-to-end metric %s is not end-to-end in code", m.Name)
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("metric %s missing from BENCHMARK.json", name)
		}
	}

	// layers.json maps every per-layer metric to exactly one layer.
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct{ Metrics []string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	inLayer := map[string]int{}
	for _, l := range doc.Layers {
		for _, m := range l.Metrics {
			inLayer[m]++
		}
	}
	for _, m := range bf.PerLayer {
		if inLayer[m.Name] != 1 {
			t.Errorf("per-layer metric %s is in %d layers of layers.json", m.Name, inLayer[m.Name])
		}
		delete(inLayer, m.Name)
	}
	for m := range inLayer {
		t.Errorf("layers.json names %s, which BENCHMARK.json does not", m)
	}
}

// TestAttribution checks the ledger rule on hand-made stages: a fused stage
// goes to the Process of its last op, every stage once, task time summed.
func TestAttribution(t *testing.T) {
	task := func(ms int) []engine.TaskMetrics {
		return []engine.TaskMetrics{{Wall: time.Duration(ms) * time.Millisecond}}
	}
	m := engine.Metrics{Stages: []engine.StageMetrics{
		{Name: "A/map", Tasks: task(1)},
		{Name: "A/apply+B/call", Tasks: task(2)},
		{Name: "B/collect", Tasks: task(3)},
		{Name: "ResultVCF/collect", Tasks: task(4)},
	}}
	rows := attribute(m)
	got := map[string][]string{}
	for _, r := range rows {
		got[r.Process] = r.Stages
	}
	if len(rows) != 3 || len(got["A"]) != 1 || !slices.Equal(got["B"], []string{"A/apply+B/call", "B/collect"}) {
		t.Fatalf("rows %+v", rows)
	}
	if err := checkAttribution(m, rows); err != nil {
		t.Fatal(err)
	}
	rows[0].TaskTime++
	if err := checkAttribution(m, rows); err == nil {
		t.Fatal("tampered task time passed the self-test")
	}
	rows[0].TaskTime--
	rows[1].Stages = rows[1].Stages[1:]
	if err := checkAttribution(m, rows); err == nil {
		t.Fatal("dropped stage passed the self-test")
	}
}

// TestSmoke runs every workload, untraced and traced, at reduced size and
// checks that each prints every metric BENCHMARK.json names, with its unit,
// and that all workloads agree on every input's VCF digest.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	state := t.TempDir()
	scale := experiments.Scale{GenomeLen: 12000, Coverage: 8, NumPartitions: 4, PartitionLen: 2000, Seed: 42}
	digests := map[int64]string{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			s := scale
			s.Workers = w.slots
			cfg := config{workload: w, scale: s, trace: trace, stateDir: state, root: "..", inputs: 1}
			res, err := run(cfg, os.Stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%s trace=%v: attempted %d failed %d problems %v", w.name, trace, res.Attempted, res.Failed, res.Problems)
			}
			for _, in := range res.Inputs {
				if d, ok := digests[in.Seed]; ok && d != in.Digest {
					t.Errorf("%s: input %d digest %s, another workload had %s", w.name, in.Seed, in.Digest, d)
				}
				digests[in.Seed] = in.Digest
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			b, err := json.Marshal(res.summary())
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace {
				checkTraceFile(t, filepath.Join(state, "traces", w.name+"-seed42.json"))
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("%s: bad event %+v", path, e)
		}
		names[strings.SplitN(e.Name, " ", 2)[0]] = true
	}
	for _, want := range []string{"workload.Make", "Runtime.Index", "mproc.Run", "Pipeline.Run", "core.CollectVCF", "HaplotypeCaller/haplotype-caller"} {
		found := false
		for n := range names {
			if strings.Contains(n, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s event", path, want)
		}
	}
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		p := filepath.Join(dir, name)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := machineBlock{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	base := write("base.json", result{Machine: m, Workload: "wgs", Metrics: map[string]float64{"wall_s": 3}})
	m.Commit = "b"
	same := write("same.json", result{Machine: m, Workload: "wgs", Metrics: map[string]float64{"wall_s": 2.9}})
	m.NumCPU = 4
	other := write("other.json", result{Machine: m, Workload: "wgs", Metrics: map[string]float64{"wall_s": 2.9}})
	var sb strings.Builder
	if err := compareFiles([]string{base, same}, &sb); err != nil {
		t.Fatalf("same machine, other commit: %v", err)
	}
	if err := compareFiles([]string{base, other}, &sb); err == nil || !strings.Contains(err.Error(), "machine") {
		t.Fatalf("other machine compared: %v", err)
	}
}
