package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
)

// referenceDigests computes each seeded workload's default-seed output
// digest independently of the code path the workload measures.
var referenceDigests = map[string]func(context.Context, int64) (string, error){
	"sweep-sampled": sweepDigest,
	"serve-mixed":   serveDigest,
}

// regenerate recomputes every committed reference from scratch: the
// paper-all artifact text, the exact IPC of the sample_ipc_err_pct
// check set, and the default-seed output digests of every workload.
// Everything it writes is deterministic, so two regenerations on the
// same commit are byte-identical.
func regenerate() error {
	ctx := context.Background()
	if err := os.MkdirAll(refsDir, 0o755); err != nil {
		return err
	}
	text, err := paperAllText(ctx, runtime.GOMAXPROCS(0))
	if err != nil {
		return fmt.Errorf("paper-all: %w", err)
	}
	if err := writeRef(refPaperAll, text); err != nil {
		return err
	}
	ipc, err := exactCheckIPC(ctx)
	if err != nil {
		return fmt.Errorf("check set: %w", err)
	}
	if err := writeRef(refIPC, ipc); err != nil {
		return err
	}
	digests := map[string]string{"paper-all": digest(text)}
	for name, fn := range referenceDigests {
		d, err := fn(ctx, defaultSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		digests[name] = d
	}
	return writeRef(refDigests, digests)
}
