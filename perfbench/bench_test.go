package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/workload"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func tinyConfig(t *testing.T, wl string, trace bool) config {
	return config{
		workload: wl, seed: 3, seconds: 0.5, trace: trace, models: 20,
		workDir: filepath.Join(t.TempDir(), "work"), logf: t.Logf,
	}
}

// TestWorkloadsTiny runs every workload at a tiny fleet size, untraced
// and traced, and checks that each run is correct and prints exactly
// the metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	if !testing.Short() {
		t.Skip("runs in -short mode; the full-size workloads are run with run.sh")
	}
	e2e, layer := declared(t)
	for wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(context.Background(), tinyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, name, m, unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
					}
				}
			}
		}
	}
}

// TestFlippedByteFailsCheck shows that a recovery differing from the
// generated set in a single byte fails the output check, both for an
// exact recovery and for a budgeted Provenance recovery (whose
// untouched models must still be exact).
func TestFlippedByteFailsCheck(t *testing.T) {
	fl, err := makeFleet(fleetSpec{models: 20, seed: 5, mode: workload.ModeTrain})
	if err != nil {
		t.Fatal(err)
	}
	st := openStores(fl.reg, nil)
	a := core.NewBaseline(st.stores)
	ids, err := saveChain(context.Background(), a, fl)
	if err != nil {
		t.Fatal(err)
	}
	for uc, id := range ids {
		got, err := a.RecoverContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if !fl.recovered(uc, got, false) {
			t.Fatalf("intact recovery of use case %d fails the check", uc)
		}
		victim := 0
		if uc > 0 {
			victim = fl.untouched[uc][0]
		}
		raw := got.Models[victim].AppendParamBytes(nil)
		raw[len(raw)/2] ^= 0x01
		if _, err := got.Models[victim].SetParamBytes(raw); err != nil {
			t.Fatal(err)
		}
		var chk checker
		chk.op(fl.recovered(uc, got, false), "exact")
		chk.op(fl.recovered(uc, got, true), "budgeted")
		if chk.failed != 2 {
			t.Fatalf("use case %d: a flipped byte failed %d of 2 checks", uc, chk.failed)
		}
	}
}
