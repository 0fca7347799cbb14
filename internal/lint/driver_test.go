package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWithFacts executes a single analyzer's unit pass over units and
// returns the diagnostics plus the raw facts it exported — the
// fact-level view that Run folds away into the module phase.
func runWithFacts(a *Analyzer, units []*Unit) ([]Diagnostic, []Fact) {
	var diags []Diagnostic
	var facts []Fact
	for _, u := range units {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			PkgPath:  u.Path,
			unit:     u,
			out:      &diags,
			facts:    &facts,
		}
		a.Run(pass)
	}
	return diags, facts
}

// TestFactExport pins the cross-package fact plumbing: the covered
// kernel fixture must export both a kernel fact (from the Scan decl)
// and a checksharded fact (from sharded_test.go), joined by directory.
func TestFactExport(t *testing.T) {
	units := loadFixture(t, "kernelcontract")
	_, facts := runWithFacts(KernelContract, units)

	var kernel, sharded *Fact
	for i := range facts {
		f := &facts[i]
		switch f.Name {
		case factKernel:
			kernel = f
		case factCheckSharded:
			sharded = f
		}
	}
	if kernel == nil {
		t.Fatal("no kernel fact exported for the Kern type")
	}
	if kernel.Value != "Kern" {
		t.Fatalf("kernel fact value = %q, want Kern", kernel.Value)
	}
	if kernel.Analyzer != KernelContract.Name {
		t.Fatalf("kernel fact attributed to %q", kernel.Analyzer)
	}
	if kernel.Pos.Line == 0 || kernel.Pos.Filename == "" {
		t.Fatalf("kernel fact has unresolved position %+v", kernel.Pos)
	}
	if sharded == nil {
		t.Fatal("no checksharded fact exported from sharded_test.go")
	}
	if filepath.Base(sharded.Pos.Filename) != "sharded_test.go" {
		t.Fatalf("checksharded fact from %s, want sharded_test.go", sharded.Pos.Filename)
	}
	if kernel.Dir != sharded.Dir {
		t.Fatalf("fact join key mismatch: kernel dir %s vs checksharded dir %s", kernel.Dir, sharded.Dir)
	}

	// The module phase joins them: covered kernel, so no coverage
	// diagnostic may appear in the full Run either.
	for _, d := range Run(units, []*Analyzer{KernelContract}) {
		if strings.Contains(d.Message, "no sharded_test.go") {
			t.Fatalf("covered kernel still reported uncovered: %s", d)
		}
	}

	// And the uncovered fixture must produce exactly the coverage
	// diagnostic the join exists for.
	units = loadFixture(t, "kernelcontract_uncovered")
	found := false
	for _, d := range Run(units, []*Analyzer{KernelContract}) {
		if strings.Contains(d.Message, "no sharded_test.go") {
			found = true
		}
	}
	if !found {
		t.Fatal("uncovered kernel not reported by the module phase")
	}
}

// fixModule writes a temp module with one fixable kernelcontract
// violation and one fixable lockhold defer typo, returning its dir.
func fixModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixprobe\n\ngo 1.22\n")
	write("kern.go", `package fixprobe

import "context"

type SharedThreshold struct{ v float64 }

func (s *SharedThreshold) Floor(local float64) float64 { return s.v }

type Collector struct{ t float64 }

func (c *Collector) Threshold() float64     { return c.t }
func (c *Collector) Push(int, float64) bool { return true }

type Kern struct{ norms []float64 }

func (k *Kern) Shards() int             { return 1 }
func (k *Kern) Prepare(q []float64) any { return nil }

func (k *Kern) Scan(ctx context.Context, pq any, c *Collector, shared *SharedThreshold) error {
	t := shared.Floor(c.Threshold())
	for i, n := range k.norms {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n <= t {
			continue
		}
		c.Push(i, n)
	}
	return nil
}
`)
	write("locks.go", `package fixprobe

import "sync"

type guard struct{ mu sync.Mutex }

func (g *guard) do() {
	g.mu.Lock()
	defer g.mu.Lock()
}
`)
	return dir
}

// loadModule loads every unit of a standalone module rooted at dir.
func loadModule(t *testing.T, dir string) []*Unit {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(dir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		for _, e := range u.TypeErrors {
			t.Fatalf("type error: %v", e)
		}
	}
	return units
}

// TestFixIdempotency applies suggested fixes and verifies (a) the fixed
// tree re-lints clean of fixable diagnostics, and (b) a second -fix
// pass is a no-op, byte for byte.
func TestFixIdempotency(t *testing.T) {
	dir := fixModule(t)
	analyzers := []*Analyzer{KernelContract, LockHold}

	diags := Run(loadModule(t, dir), analyzers)
	var fixable int
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			fixable++
		}
	}
	if fixable != 2 {
		t.Fatalf("expected 2 fixable diagnostics (threshold op + defer typo), got %d in %v", fixable, diags)
	}
	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 {
		t.Fatalf("expected 2 rewritten files, got %v", changed)
	}

	kern, err := os.ReadFile(filepath.Join(dir, "kern.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(kern), "if n < t {") {
		t.Fatalf("threshold fix not applied:\n%s", kern)
	}
	locks, err := os.ReadFile(filepath.Join(dir, "locks.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(locks), "defer g.mu.Unlock()") {
		t.Fatalf("defer-typo fix not applied:\n%s", locks)
	}

	// Second pass: the fixed tree must carry no fixable diagnostics and
	// ApplyFixes must not rewrite anything.
	diags2 := Run(loadModule(t, dir), analyzers)
	for _, d := range diags2 {
		if len(d.Fixes) > 0 {
			t.Fatalf("fixable diagnostic survived -fix: %s", d)
		}
	}
	changed2, err := ApplyFixes(diags2)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed2) != 0 {
		t.Fatalf("second -fix pass rewrote %v", changed2)
	}
	kern2, err := os.ReadFile(filepath.Join(dir, "kern.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(kern2) != string(kern) {
		t.Fatal("kern.go changed between -fix passes")
	}
}

// TestRunTimed checks the -timings data source: one Timing per
// analyzer in registration order, with identical diagnostics to Run.
func TestRunTimed(t *testing.T) {
	units := loadFixture(t, "lockorder")
	analyzers := []*Analyzer{LockHold, LockOrder}
	diags, timings := RunTimed(units, analyzers)
	if len(timings) != len(analyzers) {
		t.Fatalf("got %d timings for %d analyzers", len(timings), len(analyzers))
	}
	for i, a := range analyzers {
		if timings[i].Analyzer != a.Name {
			t.Fatalf("timing %d is %q, want %q (registration order)", i, timings[i].Analyzer, a.Name)
		}
		if timings[i].Unit < 0 || timings[i].Module < 0 {
			t.Fatalf("negative duration in %+v", timings[i])
		}
	}
	// LockOrder has a module phase that did real work on this fixture.
	if timings[1].Module == 0 {
		t.Fatal("lockorder module phase reported zero duration")
	}
	plain := Run(units, analyzers)
	if len(plain) != len(diags) {
		t.Fatalf("Run and RunTimed disagree: %d vs %d diagnostics", len(plain), len(diags))
	}
}

// TestLoaderParallelImports loads the whole lint package tree twice
// through one loader from concurrent goroutines; under -race this
// exercises the single-flight import cache and the serialized stdlib
// importer.
func TestLoaderParallelImports(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := loader.Load(root + "/...")
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyFixesDedupeAndConflict pins the multi-analyzer fix contract:
// byte-identical edits from two analyzers collapse to one application,
// while overlapping edits with different replacements abort naming both
// analyzers and leave the file untouched.
func TestApplyFixesDedupeAndConflict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	const orig = "hello world"
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	edit := func(off, end int, text string) []SuggestedFix {
		return []SuggestedFix{{Edits: []TextEdit{{File: path, Offset: off, End: end, NewText: text}}}}
	}

	// Two analyzers suggesting the exact same edit: applied once.
	same := []Diagnostic{
		{Analyzer: "alpha", File: path, Fixes: edit(0, 5, "HELLO")},
		{Analyzer: "beta", File: path, Fixes: edit(0, 5, "HELLO")},
	}
	changed, err := ApplyFixes(same)
	if err != nil {
		t.Fatalf("identical edits must dedupe, got: %v", err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed = %v, want just %s", changed, path)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HELLO world" {
		t.Fatalf("after dedupe apply: %q, want %q", got, "HELLO world")
	}

	// Same span, different replacement: a genuine conflict.
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	conflict := []Diagnostic{
		{Analyzer: "alpha", File: path, Fixes: edit(0, 5, "HELLO")},
		{Analyzer: "beta", File: path, Fixes: edit(0, 5, "goodbye")},
	}
	_, err = ApplyFixes(conflict)
	if err == nil {
		t.Fatal("conflicting fixes did not error")
	}
	for _, want := range []string{"conflicting fixes", "alpha", "beta"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q does not mention %q", err, want)
		}
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != orig {
		t.Fatalf("conflict rewrote the file to %q", got)
	}

	// Overlapping (not identical) spans conflict too.
	overlap := []Diagnostic{
		{Analyzer: "alpha", File: path, Fixes: edit(0, 7, "X")},
		{Analyzer: "beta", File: path, Fixes: edit(5, 9, "Y")},
	}
	if _, err := ApplyFixes(overlap); err == nil || !strings.Contains(err.Error(), "conflicting fixes") {
		t.Fatalf("overlapping edits: got %v, want conflicting-fixes error", err)
	}
}
