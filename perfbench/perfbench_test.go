package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfTest runs every workload at tiny scale, untraced and traced, with
// every correctness gate, and checks the result line carries exactly the
// metrics the benchmark declares.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("self-test runs every workload")
	}
	for _, name := range []string{"serve-read", "serve-write", "table5", "discover-rerank"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				dir := t.TempDir()
				res, err := execute(name, 3, 1, traced, "tiny", dir, &out)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range res.Gates {
					if !g.OK {
						t.Errorf("gate %s: %s", g.Name, g.Error)
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("result line: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				want := layerNames
				if !traced {
					want = nil
					for n := range gatedUnits {
						want = append(want, n)
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := line.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s missing", n)
					case math.IsNaN(m.Value) || m.Value < 0 && n != "trace.overhead_pct":
						t.Errorf("metric %s = %v", n, m.Value)
					case !traced && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", n)
					}
				}
				if traced {
					if fi, err := os.Stat(filepath.Join(dir, "traces", name+"-s3.jsonl")); err != nil || fi.Size() == 0 {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

func TestQuantilesAreExact(t *testing.T) {
	s := &Samples{}
	for i := 100; i >= 1; i-- {
		s.v = append(s.v, float64(i))
	}
	if got := s.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := s.Quantile(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := s.Beyond(0.99); got != 1 {
		t.Errorf("beyond p99 = %d, want 1", got)
	}
	s.Fail()
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("a failed op must sort past every sample, max = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &Tracer{spans: []Span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 40, End: 70},
		{Name: "c", Parent: 2, Start: 50, End: 60},
	}}
	st := tr.Stats()
	if got := st["op"].Self; got != 50 {
		t.Errorf("op self = %v, want 50", got)
	}
	if got := st["b"].Self; got != 20 {
		t.Errorf("b self = %v, want 20", got)
	}
}

func TestCompareRefusesIncomparableResults(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r Result) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := Result{Workload: "table5", Provenance: Provenance{CPUs: 2, GOMAXPROCS: 2, ConfigHash: "x"}}
	a := write("a.json", base)
	for _, mut := range []func(*Result){
		func(r *Result) { r.Provenance.CPUs = 4 },
		func(r *Result) { r.Provenance.GOMAXPROCS = 1 },
		func(r *Result) { r.Provenance.ConfigHash = "y" },
	} {
		other := base
		mut(&other)
		if err := compare([]string{a, write("b.json", other)}); err == nil {
			t.Errorf("compare accepted %+v against %+v", other.Provenance, base.Provenance)
		}
	}
	if err := compare([]string{a, write("c.json", base)}); err != nil {
		t.Errorf("compare refused identical provenance: %v", err)
	}
}
