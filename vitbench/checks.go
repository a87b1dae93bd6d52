package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"vitdyn/internal/engine"
	"vitdyn/internal/serve"
)

// checkCatalogResponse verifies a catalog is usable: at least one path,
// ordered cheapest first.
func checkCatalogResponse(c *serve.CatalogResponse) error {
	if c == nil || len(c.Paths) == 0 {
		return errors.New("catalog has no paths")
	}
	for i := 1; i < len(c.Paths); i++ {
		if c.Paths[i].Cost < c.Paths[i-1].Cost {
			return fmt.Errorf("catalog %s paths not cheapest first at %d (%v < %v)", c.Model, i, c.Paths[i].Cost, c.Paths[i-1].Cost)
		}
	}
	return nil
}

func checkCatalog(body []byte) error {
	var c serve.CatalogResponse
	if err := json.Unmarshal(body, &c); err != nil {
		return fmt.Errorf("decoding catalog: %w", err)
	}
	return checkCatalogResponse(&c)
}

// checkBatch verifies a batch answered n items, each a valid catalog.
func checkBatch(n int) func([]byte) error {
	return func(body []byte) error {
		var b serve.BatchResponse
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("decoding batch: %w", err)
		}
		if len(b.Results) != n {
			return fmt.Errorf("batch answered %d of %d items", len(b.Results), n)
		}
		for i, r := range b.Results {
			if r.Error != "" {
				return fmt.Errorf("batch item %d: %s", i, r.Error)
			}
			if err := checkCatalogResponse(r.Catalog); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	}
}

// replayPolicies is the size of the daemon's default policy panel.
const replayPolicies = 3

// checkReplay verifies a single-trace replay simulated exactly the
// frames requested under every policy of the default panel.
func checkReplay(frames int) func([]byte) error {
	return func(body []byte) error {
		var r serve.ReplayResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding replay: %w", err)
		}
		if len(r.Results) != 1 {
			return fmt.Errorf("replay answered %d traces, want 1", len(r.Results))
		}
		res := r.Results[0]
		if res.Error != "" {
			return fmt.Errorf("replay: %s", res.Error)
		}
		if res.Frames != frames || len(res.Policies) != replayPolicies {
			return fmt.Errorf("replay simulated %d frames under %d policies, want %d under %d", res.Frames, len(res.Policies), frames, replayPolicies)
		}
		for _, p := range res.Policies {
			if p.Result.Frames != frames {
				return fmt.Errorf("replay policy %s simulated %d frames, want %d", p.Policy, p.Result.Frames, frames)
			}
		}
		return nil
	}
}

// equalTo checks a body is byte-identical to want.
func equalTo(want []byte) func([]byte) error {
	return func(body []byte) error {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("body differs from the reference (%d vs %d bytes)", len(body), len(want))
		}
		return nil
	}
}

// unitFor is the cost unit /v1/backends publishes for a backend name.
func unitFor(name string) string {
	for _, b := range serve.Backends() {
		if b.Name == name {
			return b.Unit
		}
	}
	return ""
}

// inProcessCatalog builds a spec's catalog in this process, through the
// same public pipeline the daemon uses, and encodes it as the daemon
// encodes a /v1/catalog body.
func inProcessCatalog(ctx context.Context, s Spec) ([]byte, error) {
	backend, err := serve.ResolveBackend(s.Backend)
	if err != nil {
		return nil, err
	}
	model, seq, err := s.Request().Seq()
	if err != nil {
		return nil, err
	}
	cat, _, err := engine.NewWithCache(backend, 0, serve.NewStore(0)).CatalogFromSeq(ctx, model, seq, engine.StreamOptions{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(serve.CatalogResponseFor(cat, backend.Name(), unitFor(backend.Name()))); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
