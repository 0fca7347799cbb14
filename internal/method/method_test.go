package method

import (
	"context"
	"reflect"
	"testing"

	"fexipro/internal/data"
)

func TestTableOrderMatchesPaper(t *testing.T) {
	want := []string{"Naive", "BallTree", "FastMKS", "SS-L", "F-S", "F-I", "F-SI", "F-SR", "F-SIR"}
	if got := TableNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TableNames() = %v, want Table 4 order %v", got, want)
	}
	wantPruning := []string{"BallTree", "SS-L", "F-S", "F-SI", "F-SIR"}
	if got := PruningNames(); !reflect.DeepEqual(got, wantPruning) {
		t.Fatalf("PruningNames() = %v, want Tables 3/7 columns %v", got, wantPruning)
	}
}

func TestLookupAliasesAndCase(t *testing.T) {
	for _, tc := range []struct{ key, want string }{
		{"naive", "Naive"}, {"NAIVE", "Naive"}, {"scan", "Naive"},
		{"ssl", "SS-L"}, {"ss-l", "SS-L"},
		{"covertree", "FastMKS"}, {"fastmks", "FastMKS"},
		{"f-sir", "F-SIR"}, {"F-SIR", "F-SIR"}, {"f", "F"},
		{"pcatree", "PCATree"}, {"lemp", "LEMP"},
	} {
		d, ok := Lookup(tc.key)
		if !ok || d.Name != tc.want {
			t.Errorf("Lookup(%q) = %v, %v; want %s", tc.key, d, ok, tc.want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get(nope) returned nil error")
	}
}

func TestExactExcludesPCATree(t *testing.T) {
	for _, name := range ExactNames() {
		if name == "PCATree" {
			t.Fatal("ExactNames contains the approximate PCATree")
		}
	}
	d, _ := Lookup("PCATree")
	if d.Exact {
		t.Fatal("PCATree marked exact")
	}
	if d.ShardInvariant {
		t.Fatal("PCATree marked shard-invariant")
	}
}

// TestEveryMethodBuildsAndSearches builds each registered method both
// sequentially and sharded over a tiny dataset and checks the top-k
// against the exhaustive scan (exact methods only; PCATree just has to
// answer). This is the registry-level round-trip; the experiments
// package repeats it through RunMethodSharded.
func TestEveryMethodBuildsAndSearches(t *testing.T) {
	p, err := data.ProfileByName("movielens")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.Generate(p, 300, 4, 12)
	o := BuildOptions{SampleQueries: ds.Queries}
	ref, err := Build("Naive", ds.Items, o)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for _, name := range Names() {
		for _, shards := range []int{1, 3} {
			s, err := Sharded(name, ds.Items, o, shards, 2)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			d, _ := Lookup(name)
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				q := ds.Queries.Row(qi)
				got, _, _ := s.SearchContext(context.Background(), q, k)
				if len(got) != k {
					t.Fatalf("%s shards=%d q%d: %d results, want %d", name, shards, qi, len(got), k)
				}
				if !d.Exact {
					continue
				}
				want, _, _ := ref.SearchContext(context.Background(), q, k)
				for i := range want {
					if got[i].ID != want[i].ID || !approxEq(got[i].Score, want[i].Score) {
						t.Fatalf("%s shards=%d q%d r%d: got %d:%g want %d:%g",
							name, shards, qi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
					}
				}
			}
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-7 && d > -1e-7
}

func TestCostModelPredict(t *testing.T) {
	m := CostModel{Setup: 1e-6, PerItem: 1e-9, PerDim: 1e-9, PrunePrior: 0.9}
	f := Features{N: 100000, D: 50, K: 10, Shards: 1, PruneFrac: -1}
	base := m.Predict(f)
	if base <= m.Setup {
		t.Fatalf("Predict = %g, want > setup", base)
	}
	// More observed pruning must predict cheaper.
	f.PruneFrac = 0.99
	if highPrune := m.Predict(f); highPrune >= base {
		t.Fatalf("prune 0.99 cost %g >= prior cost %g", highPrune, base)
	}
	// Parallelism divides the scan term.
	f.PruneFrac = -1
	f.Shards, f.Workers = 4, 4
	if par := m.Predict(f); par >= base {
		t.Fatalf("4-way cost %g >= sequential %g", par, base)
	}
	// Workers clamp parallelism to the pool size.
	if (Features{Shards: 8, Workers: 2}).Parallelism() != 2 {
		t.Fatal("parallelism not clamped by workers")
	}
	if (Features{}).Parallelism() != 1 {
		t.Fatal("zero features parallelism != 1")
	}
}

func TestRegisterRejectsIncompleteAndDuplicate(t *testing.T) {
	mustPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	mustPanic("incomplete", Descriptor{Name: "X"})
	d, _ := Lookup("Naive")
	mustPanic("duplicate", *d)
}
