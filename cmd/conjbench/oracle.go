package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Correctness has three sources. The outputs of the default seed are
// pinned in testdata/expected.json (regenerated with -update). For any
// seed, one op in shadowEvery is re-run after the timed phase on an engine
// with every cache disabled and must give the same output. serve-mixed
// also diffs its hot responses against testdata/golden. Every mismatch is
// a failed op.

// pinnedSeed is the seed whose outputs expected.json pins.
const pinnedSeed = 1

// shadowEvery selects the ops re-run on a cache-disabled engine.
const shadowEvery = 8

// expected are the pinned outputs of a full-scale run at pinnedSeed, in
// op order. A run checks the ops it shares with the pins.
type expected struct {
	Seed int64 `json:"seed"`
	// Grid is each grid-cold program's violation digest.
	Grid []string `json:"grid"`
	// Report is each report op's (culprit, minimal schedule, minimized
	// fingerprint).
	Report []reportOutcome `json:"report"`
	// Hunt is each hunt round's new bucket signatures in discovery order,
	// joined by " ; " (signatures never contain a semicolon).
	Hunt []string `json:"hunt"`
}

func expectedPath(c *runConfig) string {
	return filepath.Join(c.root, "cmd", "conjbench", "testdata", "expected.json")
}

// pinned reports whether this run's inputs are the pinned ones.
func (c *runConfig) pinned() bool { return c.seed == pinnedSeed && !c.small }

// loadExpected reads the pins; a missing file pins nothing.
func loadExpected(c *runConfig) (*expected, error) {
	body, err := os.ReadFile(expectedPath(c))
	if errors.Is(err, fs.ErrNotExist) {
		return &expected{Seed: pinnedSeed}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(c), err)
	}
	return &e, nil
}

// checkPinned compares a run's outputs with the pinned ones (default seed
// only) or, under -update, replaces the pins with them.
func checkPinned[T comparable](c *runConfig, res *result, got []T, field func(*expected) *[]T) error {
	if !c.pinned() {
		if c.update {
			return fmt.Errorf("-update needs -seed %d at full scale", pinnedSeed)
		}
		return nil
	}
	e, err := loadExpected(c)
	if err != nil {
		return err
	}
	pins := field(e)
	if c.update {
		*pins = got
		body, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(expectedPath(c), append(body, '\n'), 0o644)
	}
	for i := 0; i < len(got) && i < len(*pins); i++ {
		if got[i] != (*pins)[i] {
			res.mismatch("op %d: got %v, pinned %v", i, got[i], (*pins)[i])
		}
	}
	res.note("pinned outputs checked: %d of this run's %d", min(len(got), len(*pins)), len(got))
	return nil
}
