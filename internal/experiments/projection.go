package experiments

import (
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/workload"
)

// ProjectionRun is one side of the columnar-storage comparison: a
// coordinate-only census over serialized record partitions.
type ProjectionRun struct {
	Mode         string // "columnar" or "gob"
	Wall         time.Duration
	DecodedBytes int64
	PrunedBytes  int64
	StoredBytes  int64 // serialized size of the cached record partitions
	PruningRatio float64
}

// ProjectionResult reproduces the projection-pushdown comparison: the same
// coordinate census (the repartitioner's load-census pattern, which reads
// only RefID/Pos) over partitions stored with the columnar codec
// (colfmt.Codec, field pruning) versus the generic gob codec (row format,
// decodes whole). The columnar side must decode strictly fewer bytes for the
// identical answer.
type ProjectionResult struct {
	Records  int
	Columnar ProjectionRun
	Gob      ProjectionRun
}

// DecodeReduction is the fraction of decoded bytes the columnar side saved
// relative to gob.
func (r *ProjectionResult) DecodeReduction() float64 {
	if r.Gob.DecodedBytes == 0 {
		return 0
	}
	return 1 - float64(r.Columnar.DecodedBytes)/float64(r.Gob.DecodedBytes)
}

// Projection aligns the workload's reads and runs the census under both
// codecs.
func Projection(s Scale) (*ProjectionResult, error) {
	d := s.dataset(workload.WGS)
	rt := s.newRuntime(d)
	idx, err := rt.Index()
	if err != nil {
		return nil, err
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	records := make([]sam.Record, 0, 2*len(d.Pairs))
	for i := range d.Pairs {
		r1, r2 := aligner.AlignPair(&d.Pairs[i])
		records = append(records, r1, r2)
	}

	res := &ProjectionResult{Records: len(records)}
	for _, mode := range []struct {
		name  string
		codec engine.Serializer[sam.Record]
		out   *ProjectionRun
	}{
		{"columnar", colfmt.Codec{}, &res.Columnar},
		{"gob", compress.GobCodec[sam.Record]{}, &res.Gob},
	} {
		run, err := projectionCensus(s, records, mode.codec)
		if err != nil {
			return nil, fmt.Errorf("projection %s: %w", mode.name, err)
		}
		run.Mode = mode.name
		*mode.out = run
	}
	if res.Columnar.DecodedBytes >= res.Gob.DecodedBytes {
		return nil, fmt.Errorf("projection: columnar decoded %d bytes, gob %d — pushdown ineffective",
			res.Columnar.DecodedBytes, res.Gob.DecodedBytes)
	}
	return res, nil
}

// projectionCensus stores records as serialized partitions under codec and
// counts them by coordinate bucket with a declared FieldCoord read.
func projectionCensus(s Scale, records []sam.Record, codec engine.Serializer[sam.Record]) (ProjectionRun, error) {
	ctx := engine.NewContext(s.Workers)
	ctx.StoreSerialized = true
	stored, err := engine.MapPartitions("projection/store",
		engine.Parallelize(ctx, records, s.NumPartitions), codec,
		func(_ int, items []sam.Record) ([]sam.Record, error) { return items, nil },
		engine.ReadsOnly(0))
	if err != nil {
		return ProjectionRun{}, err
	}
	if err := stored.Force(); err != nil {
		return ProjectionRun{}, err
	}
	ctx.ResetMetrics() // isolate the census read from the store stage

	start := time.Now()
	if _, err := engine.CountByKey("projection/census", stored, func(r sam.Record) int {
		return int(r.RefID)<<20 | int(r.Pos)
	}, engine.ReadsOnly(colfmt.FieldCoord)); err != nil {
		return ProjectionRun{}, err
	}
	m := ctx.Metrics()
	return ProjectionRun{
		Wall:         time.Since(start),
		DecodedBytes: m.TotalDecodedBytes(),
		PrunedBytes:  m.TotalPrunedBytes(),
		StoredBytes:  stored.MemoryBytes(),
		PruningRatio: m.PruningRatio(),
	}, nil
}

// Format renders the comparison table.
func (r *ProjectionResult) Format() []string {
	out := []string{fmt.Sprintf("Projection pushdown: coordinate census over %d stored records", r.Records)}
	for _, run := range []*ProjectionRun{&r.Columnar, &r.Gob} {
		out = append(out, row(run.Mode,
			fmt.Sprintf("stored %7.3f MB", float64(run.StoredBytes)/1e6),
			fmt.Sprintf("decoded %7.3f MB", float64(run.DecodedBytes)/1e6),
			fmt.Sprintf("pruned %7.3f MB", float64(run.PrunedBytes)/1e6),
			fmt.Sprintf("pruning ratio %5.1f%%", 100*run.PruningRatio),
			fmt.Sprintf("census wall %s", run.Wall.Round(time.Millisecond))))
	}
	out = append(out, fmt.Sprintf("decode-byte reduction vs gob: %.1f%%", 100*r.DecodeReduction()))
	return out
}
