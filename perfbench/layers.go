package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// mutation is one acknowledged add or delete, in acknowledgement order.
// For an add, id is the ID the system assigned.
type mutation struct {
	del bool
	id  int
	vec []float64
}

func coreHits(rs []topk.Result) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{ID: r.ID, Score: r.Score}
	}
	return out
}

// replay attributes a workload's mutation cost to the core and snap
// layers: it applies the acknowledged mutations, in order, to a fresh
// single-shard core.DynamicIndex over the same initial catalog, logging
// each to a write-ahead log that fsyncs every append (the served
// workloads' policy), then times full checkpoints of the result.
func replay(o *outcome, cfg config, catalog *vec.Matrix, ops []mutation) error {
	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		return err
	}
	di, err := core.NewDynamicIndex(catalog, opts, 0)
	if err != nil {
		return fmt.Errorf("replay index: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.scratch, "replay-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch only; nothing to report
	wal, _, err := snap.OpenWAL(filepath.Join(dir, core.WALFile), dim, 1, 0)
	if err != nil {
		return fmt.Errorf("replay wal: %w", err)
	}
	ids := map[int]int{} // acknowledged ID → replayed ID
	var adds, dels, appends []float64
	ctx := context.Background()
	for _, m := range ops {
		start := time.Now()
		var id int
		var op snap.WALOp
		if m.del {
			// Every workload deletes only items it added.
			id, op = ids[m.id], snap.WALDelete
			err = di.DeleteContext(ctx, id)
			dels = append(dels, us(time.Since(start)))
		} else {
			op = snap.WALAdd
			id, err = di.AddContext(ctx, m.vec)
			ids[m.id] = id
			adds = append(adds, us(time.Since(start)))
		}
		if err != nil {
			_ = wal.Close() // the replay error is the one to report
			return fmt.Errorf("replaying mutation: %w", err)
		}
		start = time.Now()
		if _, err := wal.Append(op, int64(id), m.vec); err != nil {
			_ = wal.Close() // the append error is the one to report
			return fmt.Errorf("replay wal append: %w", err)
		}
		appends = append(appends, us(time.Since(start)))
	}
	lastSeq := wal.NextSeq() - 1
	if err := wal.Close(); err != nil {
		return fmt.Errorf("replay wal close: %w", err)
	}
	var ckpt []float64
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		if err := core.WriteSnapshotDir(dir, di, lastSeq); err != nil {
			return fmt.Errorf("replay checkpoint: %w", err)
		}
		ckpt = append(ckpt, ms(time.Since(start)))
	}
	rebuilds := 0
	for _, r := range di.Rebuilds() {
		rebuilds += r - 1 // the initial build is not a rebuild
	}
	o.layer["core.add_us"] = median(adds)
	o.layer["core.delete_us"] = median(dels)
	o.layer["core.rebuilds"] = float64(rebuilds)
	o.layer["snap.wal_append_us"] = median(appends)
	o.layer["snap.checkpoint_ms"] = median(ckpt)
	o.info["replayed_mutations"] = len(ops)
	return nil
}
