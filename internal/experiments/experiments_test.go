package experiments

import (
	"context"
	"strings"
	"testing"
)

// tinyConfig keeps unit-test runtimes in milliseconds.
func tinyConfig() Config {
	return Config{Profiles: []string{"movielens", "netflix"}, Items: 600, Queries: 10, Dim: 16}
}

func TestBuildAllMethods(t *testing.T) {
	cfg := tinyConfig()
	ds := cfg.Load(cfg.profiles()[0])
	for _, m := range append([]string{"SS", "LEMP"}, MethodNames...) {
		b, err := Build(m, ds.Items, ds.Queries)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		res, _, _ := b.Searcher.SearchContext(context.Background(), ds.Queries.Row(0), 3)
		if len(res) != 3 {
			t.Fatalf("%s returned %d results", m, len(res))
		}
	}
	if _, err := Build("nope", ds.Items, nil); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestRunCollectsStats(t *testing.T) {
	cfg := tinyConfig()
	ds := cfg.Load(cfg.profiles()[0])
	res, err := RunMethod("F-SIR", ds, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesCount != 10 || len(res.PerQuery) != 10 {
		t.Fatalf("per-query data missing: %+v", res)
	}
	if res.AvgFullIP <= 0 {
		t.Fatalf("AvgFullIP = %v", res.AvgFullIP)
	}
	if res.Retrieve <= 0 {
		t.Fatal("no retrieval time recorded")
	}
}

func TestGridShape(t *testing.T) {
	cfg := tinyConfig()
	grid, err := Grid(cfg, []string{"Naive", "F-SIR"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid["Naive"]) != 2 {
		t.Fatalf("grid shape wrong: %v", grid)
	}
	// F-SIR must never compute more full products than Naive.
	for _, p := range cfg.profiles() {
		if grid["F-SIR"][p.Name].AvgFullIP > grid["Naive"][p.Name].AvgFullIP {
			t.Fatalf("%s: F-SIR computed more products than Naive", p.Name)
		}
	}
}

// Every registered experiment must run end-to-end on a tiny config and
// produce non-empty output mentioning its table/figure.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is seconds-long; skipped in -short")
	}
	cfg := Config{Profiles: []string{"movielens"}, Items: 400, Queries: 8, Dim: 12}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := RunByID(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("empty output")
			}
		})
	}
	if _, err := RunByID("bogus", cfg); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("Title", "A", "BB")
	tb.AddRow("x", "y")
	out := tb.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "BB") || !strings.Contains(out, "x") {
		t.Fatalf("table output malformed:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram("H", []float64{1, 2, 2, 3, 10}, 3)
	if !strings.Contains(out, "H") || !strings.Contains(out, "#") {
		t.Fatalf("histogram malformed:\n%s", out)
	}
	if got := Histogram("E", nil, 3); !strings.Contains(got, "no data") {
		t.Fatalf("empty histogram: %s", got)
	}
	if got := Histogram("C", []float64{5, 5}, 3); !strings.Contains(got, "equal") {
		t.Fatalf("constant histogram: %s", got)
	}
}

func TestSeries(t *testing.T) {
	out := Series("S", "x", []float64{1, 2}, []string{"y"}, [][]float64{{3, 4}})
	if !strings.Contains(out, "S") || !strings.Contains(out, "4") {
		t.Fatalf("series malformed:\n%s", out)
	}
}

func TestFirstRows(t *testing.T) {
	cfg := tinyConfig()
	ds := cfg.Load(cfg.profiles()[0])
	sub := firstRows(ds.Queries, 3)
	if sub.Rows != 3 || sub.Cols != ds.Queries.Cols {
		t.Fatalf("firstRows shape %d×%d", sub.Rows, sub.Cols)
	}
	if firstRows(nil, 3) != nil {
		t.Fatal("firstRows(nil) should be nil")
	}
	same := firstRows(sub, 100)
	if same.Rows != 3 {
		t.Fatal("firstRows should not grow")
	}
}
