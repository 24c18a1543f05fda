package main

import (
	"context"
	"fmt"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
	"github.com/mmm-go/mmm/internal/workload"
)

const (
	// cycles is the number of U3 iterations after U1 (the paper's three).
	cycles = 3
	// samplesPerUpdate and epochsPerUpdate bound each update's training,
	// as the repository's experiment defaults do, so that generating
	// the fleet stays a small part of a run.
	samplesPerUpdate = 60
	epochsPerUpdate  = 1
)

// fleet is one generated scenario: the state of every model after U1
// and after each U3 cycle, the update records of each cycle, and the
// dataset registry the updates trained on. It is the ground truth every
// recovery is compared with.
type fleet struct {
	states  []*core.ModelSet
	updates [][]core.ModelUpdate // updates[c] turns states[c] into states[c+1]
	train   *core.TrainInfo
	reg     *dataset.Registry
	// untouched[c] lists the models no cycle up to c updated; a
	// budgeted Provenance recovery of states[c] must return them
	// exactly.
	untouched [][]int
}

// fleetSpec selects a scenario.
type fleetSpec struct {
	models int
	seed   uint64
	// clone starts every model as a copy of model 0 (a factory fleet).
	clone bool
	// mode is workload.ModeTrain (the paper's trained updates) or
	// workload.ModePerturb (parameter nudges, for sets that are never
	// recovered by retraining).
	mode workload.Mode
}

// makeFleet runs U1 and the U3 cycles of the paper's scenario:
// FFNN-48 battery models, 5% full and 5% partial updates per cycle.
func makeFleet(spec fleetSpec) (*fleet, error) {
	cfg := workload.DefaultConfig()
	cfg.SamplesPerDataset = samplesPerUpdate
	cfg.Epochs = epochsPerUpdate
	cfg.NumModels = spec.models
	cfg.Seed = spec.seed
	cfg.FactoryClone = spec.clone
	cfg.Mode = spec.mode
	reg := dataset.NewRegistry()
	f, err := workload.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	out := &fleet{train: f.TrainInfo(), reg: reg}
	out.states = append(out.states, f.Set.Clone())
	touched := map[int]bool{}
	out.untouched = append(out.untouched, untouchedOf(spec.models, touched))
	for c := 0; c < cycles; c++ {
		ups, err := f.RunCycle()
		if err != nil {
			return nil, err
		}
		for _, u := range ups {
			touched[u.ModelIndex] = true
		}
		out.updates = append(out.updates, ups)
		out.states = append(out.states, f.Set.Clone())
		out.untouched = append(out.untouched, untouchedOf(spec.models, touched))
	}
	return out, nil
}

func untouchedOf(n int, touched map[int]bool) []int {
	var out []int
	for i := 0; i < n; i++ {
		if !touched[i] {
			out = append(out, i)
		}
	}
	return out
}

// request is the save request of use case uc on top of base.
func (f *fleet) request(uc int, base string) core.SaveRequest {
	req := core.SaveRequest{Set: f.states[uc], Base: base, Train: f.train}
	if uc > 0 {
		req.Updates = f.updates[uc-1]
	}
	return req
}

// paramBytes is the parameter payload of one set.
func (f *fleet) paramBytes() int64 {
	s := f.states[0]
	return int64(s.Arch.ParamBytes()) * int64(s.Len())
}

// setBytes concatenates a set's parameters the way a snapshot stores
// them.
func setBytes(s *core.ModelSet) []byte {
	out := make([]byte, 0, s.Arch.ParamBytes()*s.Len())
	for _, m := range s.Models {
		out = m.AppendParamBytes(out)
	}
	return out
}

// recovered reports whether got is a correct full recovery of use case
// uc: bit-identical to the generated set, or, for a Provenance recovery
// under a retraining budget, bit-identical on every model no cycle up
// to uc updated.
func (f *fleet) recovered(uc int, got *core.ModelSet, budgeted bool) bool {
	want := f.states[uc]
	if got == nil || got.Len() != want.Len() {
		return false
	}
	if !budgeted || uc == 0 {
		return got.Equal(want)
	}
	for _, i := range f.untouched[uc] {
		if !got.Models[i].ParamsEqual(want.Models[i]) {
			return false
		}
	}
	return true
}

// storeSet is one approach's (or node's) in-memory document and blob
// stores, with the M1 latency model charged to a virtual clock (no real
// sleeps) and, when tracing, counting decorators around both backends.
type storeSet struct {
	docs, blobs *backend.Mem
	stores      core.Stores
	clock       *latency.Clock
}

// openStores opens empty stores.
func openStores(reg *dataset.Registry, tr *tracer) *storeSet {
	st := &storeSet{docs: backend.NewMem(), blobs: backend.NewMem(), clock: &latency.Clock{}}
	var db, bb backend.Backend = st.docs, st.blobs
	if tr != nil {
		db, bb = tr.docs.wrap(db), tr.blobs.wrap(bb)
	}
	m1 := latency.M1()
	st.stores = core.Stores{
		Docs:     docstore.New(db, m1.Doc, st.clock),
		Blobs:    blobstore.New(bb, m1.Blob, st.clock),
		Datasets: reg,
	}
	return st
}

// reset empties both backends and the latency clock, and points the
// stores at reg's datasets.
func (st *storeSet) reset(reg *dataset.Registry) error {
	for _, b := range []*backend.Mem{st.docs, st.blobs} {
		keys, err := b.Keys()
		if err != nil {
			return err
		}
		for _, k := range keys {
			if err := b.Delete(k); err != nil {
				return err
			}
		}
	}
	st.clock.Reset()
	st.stores.Datasets = reg
	return nil
}

// storedBytes is the size of all values the stores hold.
func (st *storeSet) storedBytes() (int64, error) {
	var total int64
	for _, b := range []*backend.Mem{st.docs, st.blobs} {
		keys, err := b.Keys()
		if err != nil {
			return 0, err
		}
		for _, k := range keys {
			n, err := b.Size(k)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}

// newApproach constructs an approach by its evaluation label.
func newApproach(name string, st core.Stores, opts ...core.Option) (core.Approach, error) {
	switch name {
	case "Baseline":
		return core.NewBaseline(st, opts...), nil
	case "Update":
		return core.NewUpdate(st, opts...), nil
	case "Provenance":
		return core.NewProvenance(st, opts...), nil
	}
	return nil, fmt.Errorf("unknown approach %q", name)
}

// saveChain saves U1..U3-3 and returns the set IDs.
func saveChain(ctx context.Context, a core.Approach, f *fleet) ([]string, error) {
	var ids []string
	base := ""
	for uc := range f.states {
		res, err := a.SaveContext(ctx, f.request(uc, base))
		if err != nil {
			return nil, err
		}
		ids = append(ids, res.SetID)
		base = res.SetID
	}
	return ids, nil
}
