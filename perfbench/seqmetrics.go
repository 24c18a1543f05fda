package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/mmm-go/mmm/internal/core"
)

// seqOpenRate is the open-loop rate of the sequence workloads'
// in-process single-model recoveries per second. It is fixed far below
// their closed-loop rate of 5,000-10,000 per second, so the open loop
// measures latency at low load; near saturation its p90 spread more
// than the bounds allow (see README.md).
const seqOpenRate = 400.0

// servePhase serves single-model recoveries of U3-3 from a Baseline
// store in process: first a closed loop, then an open loop.
func (s *seqBench) servePhase(ctx context.Context, st *storeSet, setID string) (*serveResult, error) {
	a := core.NewBaseline(st.stores, s.opts()...)
	want := s.fl.states[cycles]
	op := func(ctx context.Context, rng *rand.Rand) error {
		idx := zipfIndex(rng, want.Len())
		got, err := a.RecoverModelsContext(ctx, setID, []int{idx})
		if err != nil {
			return err
		}
		if m := got.Models[idx]; m == nil || !m.ParamsEqual(want.Models[idx]) {
			return fmt.Errorf("model %d differs from the generated set", idx)
		}
		return nil
	}
	half := time.Duration(s.cfg.seconds * serveShare / 2 * float64(time.Second))
	return runServePhases(ctx, &s.chk, s.cfg, half, seqOpenRate, op, op), nil
}

// serveResult is the outcome of a closed-loop and an open-loop phase.
type serveResult struct {
	closed, open *loadStats
}

// runServePhases runs the closed loop of closedOp and then the open
// loop of openOp at rate, for d each, counting every request as an
// operation.
func runServePhases(ctx context.Context, chk *checker, cfg config, d time.Duration, rate float64, closedOp, openOp loadOp) *serveResult {
	runtime.GC()
	closed := closedLoop(ctx, clientWorkers(), d, int64(cfg.seed), closedOp)
	runtime.GC()
	open := openLoop(ctx, clientWorkers(), rate, d, int64(cfg.seed), openOp)
	chk.addLoad(closed)
	chk.addLoad(open)
	cfg.logf("perfbench: closed loop %.0f req/s; open loop %d requests at %.0f/s, generator lateness p50 %.4f ms p99 %.4f ms",
		closed.rps(), open.done, rate, percentile(open.lateness, 50), percentile(open.lateness, 99))
	return &serveResult{closed: closed, open: open}
}

// zipfIndex draws an index in [0, n) with a Zipf skew, so a small hot
// set draws most requests and a long tail the rest.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return int(z.Uint64())
}

// sumMedians sums the per-use-case medians of one sample table.
func sumMedians(t [cycles + 1][]float64) float64 {
	var s float64
	for _, xs := range t {
		s += median(xs)
	}
	return s
}

// metrics assembles the end-to-end metrics (untraced) or the per-layer
// metrics with the traced run's own end-to-end figures (traced).
func (s *seqBench) metrics(setup float64, sv *serveResult) map[string]metric {
	var tts, ttr, partial float64
	var stored int64
	for _, name := range approaches {
		pa := s.per[name]
		tts += sumMedians(pa.tts)
		ttr += sumMedians(pa.ttr)
		partial += median(pa.partial)
		stored += pa.stored
	}
	paramBytes := float64(s.fl.paramBytes()) * float64(len(s.fl.states))
	e2e := map[string]metric{
		"setup_s":                      {setup, "s"},
		"tts_s":                        {tts, "s"},
		"ttr_s":                        {ttr, "s"},
		"partial_ms":                   {partial, "ms"},
		"stored_bytes_per_param_byte":  {float64(stored) / (paramBytes * float64(len(approaches))), "B/B"},
		"recover_alloc_per_param_byte": {ratio(float64(s.allocBytes), float64(s.returnedBytes)), "B/B"},
		"serve_rps":                    {sv.closed.rps(), "1/s"},
		"serve_p50_ms":                 {sv.open.latency(50), "ms"},
	}
	if !s.cfg.trace {
		return e2e
	}
	m := zeroLayerMetrics()
	for k, v := range e2e {
		m["traced."+k] = v
	}
	m["traced.serve_p90_ms"] = metric{sv.open.latency(90), "ms"}
	var save, rec, part pair
	var saveBusy, saveTime, recBusy, recTime time.Duration
	var modeledTTS, modeledTTR time.Duration
	var offered int
	for _, name := range approaches {
		pa := s.per[name]
		p := "core." + slug(name) + "."
		m[p+"tts_s"] = metric{sumMedians(pa.tts), "s"}
		m[p+"ttr_s"] = metric{sumMedians(pa.ttr), "s"}
		m[p+"partial_ms"] = metric{median(pa.partial), "ms"}
		m[p+"stored_bytes_per_param_byte"] = metric{float64(pa.stored) / paramBytes, "B/B"}
		save = save.add(pa.saveCounts)
		rec = rec.add(pa.recoverCounts)
		part = part.add(pa.partialCounts)
		saveBusy += pa.saveCounts[0].busy + pa.saveCounts[1].busy
		recBusy += pa.recoverCounts[0].busy + pa.recoverCounts[1].busy
		saveTime += pa.saveTime
		recTime += pa.recoverTime
		modeledTTS += pa.modeledTTS
		modeledTTR += pa.modeledTTR
		offered += pa.chunksOffered
	}
	saves := float64(len(approaches) * len(s.fl.states))
	recovers := saves
	partials := float64(len(approaches) * partialsPerRep)
	layerCounts(m, save, rec, part, saves, recovers, partials, paramBytes*float64(len(approaches)))
	m["backend.busy_share_save"] = metric{ratio(saveBusy.Seconds(), saveTime.Seconds()), "ratio"}
	m["backend.busy_share_recover"] = metric{ratio(recBusy.Seconds(), recTime.Seconds()), "ratio"}
	m["cas.written_chunk_share"] = metric{ratio(float64(save[0].calls[kPut][nsChunk]), float64(offered)), "ratio"}
	m["latency.m1_modeled_tts_s"] = metric{modeledTTS.Seconds(), "s"}
	m["latency.m1_modeled_ttr_s"] = metric{modeledTTR.Seconds(), "s"}
	return m
}

// layerCounts fills the per-operation backend, blobstore and CAS call
// counts from the summed blob ([0]) and document ([1]) snapshots.
func layerCounts(m map[string]metric, save, rec, part pair, saves, recovers, partials, savedParamBytes float64) {
	per := func(n int64, ops float64) float64 { return ratio(float64(n), ops) }
	b, d := save[0], save[1]
	m["backend.blobs.puts_per_save"] = metric{per(b.kind(kPut), saves), "count"}
	m["backend.blobs.sizes_per_save"] = metric{per(b.kind(kSize), saves), "count"}
	m["backend.docs.puts_per_save"] = metric{per(d.kind(kPut), saves), "count"}
	m["backend.blobs.write_bytes_per_param_byte"] = metric{ratio(float64(b.writeBytes), savedParamBytes), "B/B"}
	m["backend.blobs.gets_per_recover"] = metric{per(rec[0].kind(kGet), recovers), "count"}
	m["backend.docs.gets_per_recover"] = metric{per(rec[1].kind(kGet), recovers), "count"}
	m["backend.blobs.range_gets_per_partial"] = metric{per(part[0].kind(kRange), partials), "count"}
	m["backend.docs.bytes_read_per_partial"] = metric{per(part[1].readBytes, partials), "B"}
	m["blobstore.manifest_ops_per_save"] = metric{per(b.ns(nsManifest), saves), "count"}
	m["blobstore.manifest_gets_per_recover"] = metric{per(rec[0].calls[kGet][nsManifest], recovers), "count"}
	m["cas.chunk_puts_per_save"] = metric{per(b.calls[kPut][nsChunk], saves), "count"}
	m["cas.ref_ops_per_save"] = metric{per(b.ns(nsRef), saves), "count"}
	m["cas.recipe_ops_per_save"] = metric{per(b.ns(nsRecipe), saves), "count"}
	m["cas.chunk_gets_per_recover"] = metric{per(rec[0].calls[kGet][nsChunk], recovers), "count"}
}
