package cleaner

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/gpf-go/gpf/internal/sam"
)

// randomRecalTable fills a table with sparse counts: about a third of the
// quality, cycle and context bins stay empty (Obs == 0).
func randomRecalTable(rng *rand.Rand) *RecalTable {
	t := &RecalTable{}
	fill := func(c *counter) {
		if rng.Intn(3) == 0 {
			return
		}
		c.Obs = rng.Int63n(1 << uint(rng.Intn(30)+1))
		c.Errs = rng.Int63n(c.Obs + 1)
		t.Global.Obs += c.Obs
		t.Global.Errs += c.Errs
	}
	for i := range t.ByQual {
		fill(&t.ByQual[i])
	}
	for i := range t.ByCycle {
		fill(&t.ByCycle[i])
	}
	for i := range t.ByCtx {
		fill(&t.ByCtx[i])
	}
	return t
}

// randomRecalRecords builds reads with every quality byte value (below 33
// and above 96 included), non-ACGT bases, lengths past the last cycle bin,
// and records the apply pass must skip (unmapped, quality length mismatch).
func randomRecalRecords(rng *rand.Rand, n int) []sam.Record {
	recs := make([]sam.Record, n)
	for i := range recs {
		l := rng.Intn(120)
		if rng.Intn(10) == 0 {
			l = 500 + rng.Intn(100)
		}
		r := &recs[i]
		r.Seq = make([]byte, l)
		r.Qual = make([]byte, l)
		for j := range r.Seq {
			r.Seq[j] = "ACGTACGTACGTNnaR"[rng.Intn(16)]
			r.Qual[j] = byte(rng.Intn(256))
		}
		switch rng.Intn(10) {
		case 0:
			r.Flag |= sam.FlagUnmapped
		case 1:
			r.Qual = r.Qual[:l/2]
		}
	}
	return recs
}

func cloneRecords(recs []sam.Record) []sam.Record {
	out := make([]sam.Record, len(recs))
	for i, r := range recs {
		r.Seq = append([]byte(nil), r.Seq...)
		r.Qual = append([]byte(nil), r.Qual...)
		out[i] = r
	}
	return out
}

// TestKernelApplyRecalibration checks the table-driven apply kernel against
// the per-base recalibratedQual oracle byte for byte: sparse tables with
// empty bins, an empty table (Global.Obs == 0), a table counted from real
// alignments, every quality byte, non-ACGT contexts and long reads. The
// input quality strings must be left untouched and each new one must not
// share spare capacity with its neighbour.
func TestKernelApplyRecalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ref, _, aligned := buildTestAlignments(t, 91, 4)
	tables := []*RecalTable{{}, BuildRecalTable(aligned, ref, nil)}
	for i := 0; i < 20; i++ {
		tables = append(tables, randomRecalTable(rng))
	}
	for ti, table := range tables {
		recs := randomRecalRecords(rng, 60)
		if ti == 1 {
			recs = append(recs, aligned...)
		}
		orig := cloneRecords(recs)
		got := make([]sam.Record, len(recs))
		copy(got, recs)
		if err := ApplyRecalibration(got, table); err != nil {
			t.Fatal(err)
		}
		want := cloneRecords(recs)
		applyRecalibrationPerBase(want, table)
		for i := range want {
			if !bytes.Equal(got[i].Qual, want[i].Qual) {
				t.Fatalf("table %d record %d: kernel %q, oracle %q", ti, i, got[i].Qual, want[i].Qual)
			}
			if !bytes.Equal(recs[i].Qual, orig[i].Qual) {
				t.Fatalf("table %d record %d: input qualities overwritten", ti, i)
			}
			if rewritten := !recs[i].Unmapped() && len(recs[i].Qual) == len(recs[i].Seq); rewritten && cap(got[i].Qual) != len(got[i].Qual) {
				t.Fatalf("table %d record %d: quality cap %d > len %d", ti, i, cap(got[i].Qual), len(got[i].Qual))
			}
		}
	}
}

// benchRecalInputs is one partition's apply work: 1000 reads of 100 bp
// against a sparse table.
func benchRecalInputs() ([]sam.Record, *RecalTable) {
	rng := rand.New(rand.NewSource(41))
	table := randomRecalTable(rng)
	recs := make([]sam.Record, 1000)
	for i := range recs {
		recs[i].Seq = make([]byte, 100)
		recs[i].Qual = make([]byte, 100)
		for j := range recs[i].Seq {
			recs[i].Seq[j] = "ACGT"[rng.Intn(4)]
			recs[i].Qual[j] = byte(33 + 2 + rng.Intn(40))
		}
	}
	return recs, table
}

func BenchmarkKernelApplyRecalibrationPerBase(b *testing.B) {
	recs, table := benchRecalInputs()
	work := make([]sam.Record, len(recs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(work, recs)
		applyRecalibrationPerBase(work, table)
	}
}

func BenchmarkKernelApplyRecalibration(b *testing.B) {
	recs, table := benchRecalInputs()
	work := make([]sam.Record, len(recs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(work, recs)
		if err := ApplyRecalibration(work, table); err != nil {
			b.Fatal(err)
		}
	}
}
