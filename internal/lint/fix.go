package lint

import (
	"fmt"
	"os"
	"sort"
)

// ownedEdit is a TextEdit plus the analyzer that suggested it, so
// conflict errors can name both sides.
type ownedEdit struct {
	TextEdit
	analyzer string
}

// ApplyFixes applies the first suggested fix of every diagnostic that
// carries one and rewrites the affected files in place. Edits are
// validated against the file length, sorted, and applied back-to-front
// so earlier offsets stay valid. Byte-identical edits (two analyzers
// proposing the same replacement for the same span) are deduplicated
// and applied once; edits that overlap with DIFFERENT replacements are
// a genuine conflict and abort with an error naming both analyzers
// before anything is written. Returns the files rewritten, sorted. Fix
// application is idempotent by construction: a fixed site no longer
// produces the diagnostic, so a second -fix pass sees no edits
// (TestFixIdempotency asserts exactly this).
func ApplyFixes(diags []Diagnostic) ([]string, error) {
	perFile := make(map[string][]ownedEdit)
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		for _, e := range d.Fixes[0].Edits {
			perFile[e.File] = append(perFile[e.File], ownedEdit{TextEdit: e, analyzer: d.Analyzer})
		}
	}
	files := make([]string, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Strings(files)

	// Validate everything before writing anything, so a bad edit in one
	// file cannot leave the tree half-rewritten.
	contents := make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("lint: fix: %w", err)
		}
		edits := perFile[f]
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].Offset != edits[j].Offset {
				return edits[i].Offset < edits[j].Offset
			}
			if edits[i].End != edits[j].End {
				return edits[i].End < edits[j].End
			}
			return edits[i].NewText < edits[j].NewText
		})
		deduped := edits[:0]
		for _, e := range edits {
			if e.Offset < 0 || e.End < e.Offset || e.End > len(data) {
				return nil, fmt.Errorf("lint: fix: edit [%d,%d) out of range for %s (%d bytes)",
					e.Offset, e.End, f, len(data))
			}
			if n := len(deduped); n > 0 {
				prev := deduped[n-1]
				if e.Offset == prev.Offset && e.End == prev.End && e.NewText == prev.NewText {
					continue // identical suggestion from another diagnostic
				}
				if e.Offset < prev.End || (e.Offset == prev.Offset && e.End == prev.End) {
					return nil, fmt.Errorf(
						"lint: fix: conflicting fixes in %s: %s suggests replacing [%d,%d) with %q but %s suggests replacing [%d,%d) with %q — fix one site by hand, then re-run -fix",
						f, prev.analyzer, prev.Offset, prev.End, prev.NewText,
						e.analyzer, e.Offset, e.End, e.NewText)
				}
			}
			deduped = append(deduped, e)
		}
		out := make([]byte, 0, len(data))
		prev := 0
		for _, e := range deduped {
			out = append(out, data[prev:e.Offset]...)
			out = append(out, e.NewText...)
			prev = e.End
		}
		out = append(out, data[prev:]...)
		contents[f] = out
		perFile[f] = deduped
	}

	var changed []string
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return nil, fmt.Errorf("lint: fix: %w", err)
		}
		if err := os.WriteFile(f, contents[f], info.Mode().Perm()); err != nil {
			return nil, fmt.Errorf("lint: fix: %w", err)
		}
		changed = append(changed, f)
	}
	return changed, nil
}
