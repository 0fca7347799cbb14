// Command fexlint runs the project-specific static analyzers of
// internal/lint over the repository. It is stdlib-only (go/ast +
// go/types with a `go list`-free loader) and is wired into `make lint`,
// `make check`, `make precommit`, and CI.
//
// Usage:
//
//	fexlint [-json] [-fix] [-analyzers a,b,...] [-timings] [-budget D]
//	        [patterns...]
//	fexlint -list
//	fexlint -perf [-perf-facts FILE] [patterns...]
//	fexlint -write-perf-facts [-perf-facts FILE] [patterns...]
//
// Patterns default to ./... relative to the enclosing module.
//
// -perf runs the compiler-fact perf gate instead of the analyzers: it
// compiles the tree with `-gcflags='-m -d=ssa/check_bce'` and enforces
// the committed .fexperf-facts.json manifest — zero heap escapes in
// //fex:hot functions, no new bounds checks (ratcheted per function),
// and //fex:inline kernels still inlinable. Unrecognized toolchain
// output or a Go version other than the manifest's SKIPS the gate with
// a printed reason and exit 0 (compiler diagnostics are not a stable
// API). -write-perf-facts regenerates the manifest from the current
// tree and exits 0. See internal/lint/perfgate and DESIGN.md §14.
//
// Exit status (a contract scripts may rely on):
//
//	0  clean — no diagnostics after //lint:ignore suppression (and
//	   after fixes, when -fix was given)
//	1  diagnostics reported
//	2  load or usage error (bad flags, unparseable source, type errors)
//
// -fix applies every machine-applicable suggested fix in place and then
// reports only the findings that remain; fix application is idempotent
// (a second -fix pass rewrites nothing). A suppressed finding never
// carries a fix, so on a tree that lints clean -fix has nothing to
// apply.
//
// -timings prints a per-analyzer cost table to stderr (unit-phase CPU
// time and module-phase wall clock). -budget D fails the run (exit 1)
// when total analysis wall clock — load plus analyzers — exceeds the
// duration D; CI pins this so an accidentally quadratic analyzer shows
// up as a red build, not a slowly creeping lint step.
//
// -json emits one object:
//
//	{
//	  "diagnostics": [
//	    {
//	      "analyzer": "kernelcontract",
//	      "file": "internal/core/retrieve.go",   // cwd-relative
//	      "line": 150, "col": 24,
//	      "message": "...",
//	      "fixes": [                             // omitted when empty
//	        {"message": "replace <= with <",
//	         "edits": [{"file": "...", "offset": 123, "end": 125,
//	                    "new_text": "<"}]}        // byte offsets, End exclusive
//	      ]
//	    }
//	  ],
//	  "count": 1                 // diagnostics after suppression
//	}
//
// Suppress a single finding with a trailing or preceding line comment:
//
//	//lint:ignore <analyzer> reason
//
// This is the only suppression mechanism. A directive that names no
// analyzer, names an unregistered one, or gives no reason is reported
// under the name "lint:ignore" and fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fexipro/internal/lint"
	"fexipro/internal/lint/perfgate"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fexlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	fix := fs.Bool("fix", false, "apply machine-applicable suggested fixes in place")
	timings := fs.Bool("timings", false, "print per-analyzer wall-clock timings to stderr")
	budget := fs.Duration("budget", 0, "fail if analysis (load + run) exceeds this wall-clock ceiling")
	perf := fs.Bool("perf", false, "run the compiler-fact perf gate instead of the analyzers")
	writePerfFacts := fs.Bool("write-perf-facts", false, "regenerate the perf-facts manifest and exit 0")
	perfFactsPath := fs.String("perf-facts", "", "perf-facts manifest (default: <module>/.fexperf-facts.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	root := loader.ModuleRoot()
	if *perfFactsPath == "" {
		*perfFactsPath = filepath.Join(root, ".fexperf-facts.json")
	}
	if *perf || *writePerfFacts {
		return runPerfGate(root, *perfFactsPath, *writePerfFacts, fs.Args())
	}

	analysisStart := time.Now()
	units, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	loadFailed := false
	for _, u := range units {
		for _, terr := range u.TypeErrors {
			loadFailed = true
			fmt.Fprintf(os.Stderr, "fexlint: %s: type error: %v\n", u.Path, terr)
		}
	}
	if loadFailed {
		return 2
	}

	diags, perAnalyzer := lint.RunTimed(units, analyzers)
	elapsed := time.Since(analysisStart)
	if *timings {
		printTimings(perAnalyzer, elapsed)
	}
	overBudget := *budget > 0 && elapsed > *budget
	if overBudget {
		fmt.Fprintf(os.Stderr, "fexlint: analysis took %v, over the %v budget — profile with -timings and trim the slow analyzer\n",
			elapsed.Round(time.Millisecond), *budget)
	}

	if *fix {
		changed, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
		for _, f := range changed {
			fmt.Fprintf(os.Stderr, "fexlint: fixed %s\n", relTo(cwd, f))
		}
		// Fixed findings are gone from the tree; report the rest.
		var remaining []lint.Diagnostic
		for _, d := range diags {
			if len(d.Fixes) == 0 {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	for i := range diags {
		diags[i].File = relTo(cwd, diags[i].File)
		for j := range diags[i].Fixes {
			for k := range diags[i].Fixes[j].Edits {
				e := &diags[i].Fixes[j].Edits[k]
				e.File = relTo(cwd, e.File)
			}
		}
	}
	if *jsonOut {
		out := struct {
			Diagnostics []lint.Diagnostic `json:"diagnostics"`
			Count       int               `json:"count"`
		}{Diagnostics: diags, Count: len(diags)}
		if out.Diagnostics == nil {
			out.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 || overBudget {
		return 1
	}
	return 0
}

// printTimings renders the -timings table: per-analyzer unit-phase CPU
// time and module-phase wall clock, plus total analysis wall clock
// (load + run), which is what -budget meters.
func printTimings(ts []lint.Timing, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "%-14s %12s %12s\n", "analyzer", "unit(cpu)", "module")
	for _, t := range ts {
		fmt.Fprintf(os.Stderr, "%-14s %12s %12s\n", t.Analyzer,
			t.Unit.Round(time.Microsecond), t.Module.Round(time.Microsecond))
	}
	fmt.Fprintf(os.Stderr, "total wall clock (load + run): %v\n", elapsed.Round(time.Millisecond))
}

// runPerfGate is the -perf / -write-perf-facts entry point. It shares
// fexlint's exit-status contract: 0 clean or skipped-with-reason, 1
// contract violations, 2 operational errors.
func runPerfGate(root, manifestPath string, write bool, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if write {
		m, err := perfgate.Write("", root, manifestPath, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "fexlint: wrote perf facts for %d function(s) to %s\n", len(m.Functions), manifestPath)
		return 0
	}
	res, err := perfgate.Run("", root, manifestPath, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	if res.SkipReason != "" {
		fmt.Fprintf(os.Stderr, "fexlint: perf gate skipped: %s\n", res.SkipReason)
		return 0
	}
	for _, p := range res.Problems {
		fmt.Println(p.String())
	}
	if len(res.Problems) > 0 {
		return 1
	}
	return 0
}

// relTo maps path under base to a relative form for display, leaving
// anything outside base untouched.
func relTo(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}
