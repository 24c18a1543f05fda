package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/experiments"
	"github.com/mmm-go/mmm/internal/workload"
)

// Scale of the sequence workloads.
const (
	// seqModels is n, the fleet size.
	seqModels = 1000
	// setupRounds is how often a run generates its fleet; setup_s is
	// the median, and every round must produce the same fleet.
	setupRounds = 3
	// partialsPerRep is the number of single-model recoveries of U3-3
	// per approach and repetition.
	partialsPerRep = 16
	// serveShare is the share of --seconds given to the serving phase
	// (half closed loop, half open loop).
	serveShare = 0.5
)

// approaches are the evaluated approaches (MMlib-base is left out, see
// README.md).
var approaches = []string{"Baseline", "Update", "Provenance"}

// perApproach collects one approach's samples over all repetitions.
type perApproach struct {
	tts, ttr [cycles + 1][]float64
	partial  []float64
	stored   int64
	// save, recover and partial layer counts of the first repetition
	// (they repeat exactly).
	saveCounts, recoverCounts, partialCounts pair
	saveTime, recoverTime                    time.Duration
	modeledTTS, modeledTTR                   time.Duration
	chunksOffered                            int
}

// seqBench is one run of paper-seq or dedup-fleet.
type seqBench struct {
	cfg   config
	dedup bool
	fl    *fleet
	tr    *tracer
	chk   checker
	per   map[string]*perApproach
	// pool holds one storeSet per role, emptied before each use (see
	// emptyStores).
	pool map[string]*storeSet

	allocBytes, returnedBytes uint64
}

func (s *seqBench) opts() []core.Option {
	if s.dedup {
		return []core.Option{core.WithDedup()}
	}
	return nil
}

func (s *seqBench) models() int {
	if s.cfg.models > 0 {
		return s.cfg.models
	}
	return seqModels
}

// runSeq runs paper-seq (dedup false) or dedup-fleet (dedup true).
func runSeq(ctx context.Context, cfg config, dedup bool) (*result, error) {
	s := &seqBench{cfg: cfg, dedup: dedup, per: map[string]*perApproach{}, pool: map[string]*storeSet{}}
	if cfg.trace {
		s.tr = &tracer{}
	}
	for _, a := range approaches {
		s.per[a] = &perApproach{}
	}
	spec := fleetSpec{models: s.models(), seed: cfg.seed, clone: dedup, mode: workload.ModeTrain}

	// Set-up: generate the fleet several times (each must come out the
	// same), then warm every approach up once.
	var setups []float64
	var digest [32]byte
	for r := 0; r < setupRounds; r++ {
		s.fl = nil
		start := gcThenStart()
		fl, err := makeFleet(spec)
		if err != nil {
			return nil, err
		}
		if err := s.warmUp(ctx, fl); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		d := fleetDigest(fl)
		s.chk.op(r == 0 || d == digest, "setup round %d generated a different fleet", r)
		digest, s.fl = d, fl
	}
	cfg.logf("perfbench: %s n=%d setup %.2fs (median of %d)", cfg.workload, s.models(), median(setups), len(setups))

	// Timed repetitions of the whole sequence.
	measure := time.Duration(cfg.seconds * (1 - serveShare) * float64(time.Second))
	start := time.Now()
	reps := 0
	var keep *storeSet
	var keepIDs []string
	for reps == 0 || time.Since(start) < measure {
		st, ids, err := s.repetition(ctx, reps)
		if err != nil {
			return nil, err
		}
		keep, keepIDs = st, ids
		reps++
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	cfg.logf("perfbench: %d repetitions in %.1fs", reps, time.Since(start).Seconds())

	if dedup {
		if err := s.checkDedupSmaller(ctx); err != nil {
			return nil, err
		}
	}

	// Serving phase on the last repetition's Baseline store.
	sv, err := s.servePhase(ctx, keep, keepIDs[cycles])
	if err != nil {
		return nil, err
	}

	m := s.metrics(median(setups), sv)
	if cfg.trace {
		if err := s.isolated(m); err != nil {
			return nil, err
		}
	}
	return s.chk.finish(cfg, m), nil
}

// emptyStores returns the stores of role, empty and pointed at fl's
// datasets, opening them on first use. A run reuses one storeSet per
// role rather than opening fresh stores: cas.For keeps every blobstore
// it has seen reachable for the life of the process, so stores opened
// per repetition were never freed (a paper-seq run's live heap grew
// past 500 MB in ten seconds).
func (s *seqBench) emptyStores(role string, fl *fleet) (*storeSet, error) {
	if st := s.pool[role]; st != nil {
		return st, st.reset(fl.reg)
	}
	st := openStores(fl.reg, s.tr)
	s.pool[role] = st
	return st, nil
}

// fleetDigest hashes every state of a fleet.
func fleetDigest(f *fleet) [32]byte {
	h := sha256.New()
	for _, st := range f.states {
		for _, m := range st.Models {
			h.Write(m.AppendParamBytes(nil))
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// warmUp saves and recovers U1 once with every approach in a scratch
// store, so the timed phase starts with warm code paths.
func (s *seqBench) warmUp(ctx context.Context, fl *fleet) error {
	for _, name := range approaches {
		st, err := s.emptyStores(name, fl)
		if err != nil {
			return err
		}
		a, err := newApproach(name, st.stores, s.opts()...)
		if err != nil {
			return err
		}
		res, err := a.SaveContext(ctx, fl.request(0, ""))
		s.chk.opErr(err, name+" warm-up save")
		if err == nil {
			got, err := a.RecoverContext(ctx, res.SetID)
			s.chk.op(err == nil && got.Equal(fl.states[0]), "%s warm-up recovery: %v", name, err)
		}
	}
	return nil
}

// repetition saves U1..U3-3 with every approach in empty in-memory
// stores, fully recovers the four sets and recovers single models of
// U3-3. Every approach's store is emptied before the next one starts,
// except the Baseline store, which is returned for the serving phase.
// The first repetition also checks Provenance's unbudgeted recovery.
func (s *seqBench) repetition(ctx context.Context, rep int) (*storeSet, []string, error) {
	var keep *storeSet
	var keepIDs []string
	for _, name := range approaches {
		st, err := s.emptyStores(name, s.fl)
		if err != nil {
			return nil, nil, err
		}
		ids, err := s.approachRep(ctx, name, st, rep)
		if err != nil {
			return nil, nil, err
		}
		if name == "Baseline" && ids != nil {
			keep, keepIDs = st, ids
		} else if err := st.reset(s.fl.reg); err != nil {
			return nil, nil, err
		}
	}
	if keep == nil {
		return nil, nil, fmt.Errorf("baseline saves failed")
	}
	return keep, keepIDs, nil
}

func (s *seqBench) approachRep(ctx context.Context, name string, st *storeSet, rep int) ([]string, error) {
	a, err := newApproach(name, st.stores, s.opts()...)
	if err != nil {
		return nil, err
	}
	pa := s.per[name]
	first := rep == 0
	fl := s.fl

	// Saves U1 .. U3-3.
	ids := make([]string, 0, len(fl.states))
	base := ""
	for uc := range fl.states {
		before := s.tr.both()
		start := gcThenStart()
		res, err := a.SaveContext(ctx, fl.request(uc, base))
		d := time.Since(start)
		s.chk.opErr(err, fmt.Sprintf("%s save of use case %d", name, uc))
		if err != nil {
			return nil, nil
		}
		pa.tts[uc] = append(pa.tts[uc], d.Seconds())
		if first {
			diff := s.tr.both().sub(before)
			pa.saveCounts = pa.saveCounts.add(diff)
			pa.saveTime += d
			n, err := s.chunksOffered(st, res.SetID, name)
			if err != nil {
				return nil, err
			}
			pa.chunksOffered += n
		}
		ids = append(ids, res.SetID)
		base = res.SetID
	}
	if first {
		pa.modeledTTS = st.clock.Elapsed()
		n, err := st.storedBytes()
		if err != nil {
			return nil, err
		}
		pa.stored = n
	}
	st.clock.Reset()

	// Full recoveries of all four sets. Provenance recovers under the
	// paper's reduced retraining budget, so only the models no cycle
	// touched must come back exactly.
	prov, _ := a.(*core.Provenance)
	if prov != nil {
		prov.RecoveryBudget = experiments.PaperProvenanceBudget()
	}
	for uc, id := range ids {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		before := s.tr.both()
		start := time.Now()
		got, err := a.RecoverContext(ctx, id)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if first {
			pa.recoverCounts = pa.recoverCounts.add(s.tr.both().sub(before))
			pa.recoverTime += d
		}
		ok := err == nil && fl.recovered(uc, got, prov != nil)
		if err == nil {
			s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			s.returnedBytes += uint64(got.Arch.ParamBytes() * got.Len())
		}
		s.chk.op(ok, "%s recovery of use case %d differs from the generated set (err %v)", name, uc, err)
		pa.ttr[uc] = append(pa.ttr[uc], d.Seconds())
	}
	if first {
		pa.modeledTTR = st.clock.Elapsed()
	}
	if prov != nil {
		prov.RecoveryBudget = nil
		if first {
			// Untimed: an unbudgeted recovery retrains every update of
			// U3-1 and must reproduce it bit for bit.
			got, err := a.RecoverContext(ctx, ids[1])
			s.chk.op(err == nil && got.Equal(fl.states[1]),
				"unbudgeted Provenance recovery of U3-1 differs (err %v)", err)
		}
	}

	// Single-model recoveries of U3-3, the same seeded models for every
	// approach.
	pr := a.(core.PartialRecoverer)
	rng := rand.New(rand.NewSource(int64(s.cfg.seed)*7919 + int64(rep)))
	want := fl.states[cycles]
	for k := 0; k < partialsPerRep; k++ {
		idx := rng.Intn(want.Len())
		before := s.tr.both()
		start := gcThenStart()
		got, err := pr.RecoverModelsContext(ctx, ids[cycles], []int{idx})
		d := time.Since(start)
		if first {
			pa.partialCounts = pa.partialCounts.add(s.tr.both().sub(before))
		}
		ok := err == nil && got.Models[idx] != nil && got.Models[idx].ParamsEqual(want.Models[idx])
		s.chk.op(ok, "%s single-model recovery of model %d differs (err %v)", name, idx, err)
		pa.partial = append(pa.partial, d.Seconds()*1e3)
	}
	return ids, nil
}

// chunksOffered counts the chunks the CAS recipes of a just-saved set
// reference (offered to the chunk store, whether written or deduped).
func (s *seqBench) chunksOffered(st *storeSet, setID, approach string) (int, error) {
	if s.tr == nil || !s.dedup {
		return 0, nil
	}
	return recipeChunks(st.stores, slug(approach)+"/"+setID+"/")
}

// checkDedupSmaller saves the chain once more with every approach in
// the plain layout (untimed) and checks that the deduplicated stores of
// the first repetition held fewer bytes.
func (s *seqBench) checkDedupSmaller(ctx context.Context) error {
	var plain, dedup int64
	for _, name := range approaches {
		dedup += s.per[name].stored
		st, err := s.emptyStores("plain", s.fl)
		if err != nil {
			return err
		}
		a, err := newApproach(name, st.stores)
		if err != nil {
			return err
		}
		if _, err := saveChain(ctx, a, s.fl); err != nil {
			return err
		}
		n, err := st.storedBytes()
		if err != nil {
			return err
		}
		plain += n
	}
	s.chk.op(dedup < plain, "deduplicated stores hold %d bytes, the plain layout %d", dedup, plain)
	return nil
}
