package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"

	tensorlights "repro"
)

// legacyShardedConfig encodes cfg the way an older client or daemon
// did when it asked for the since-removed sharded engine: with an
// extra "Sharded" block in the experiment config object.
func legacyShardedConfig(t *testing.T, cfg tensorlights.ExperimentConfig) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	obj["Sharded"] = json.RawMessage(`{"Shards":2,"Cells":2,"Sequential":false}`)
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLegacyShardedBlockDecodesAndRuns: a submit body or journal record
// carrying a legacy "Sharded" block still decodes; encoding/json drops
// the unknown key, so the job runs on the single kernel with the same
// result bytes as the same config without the block.
func TestLegacyShardedBlockDecodesAndRuns(t *testing.T) {
	exp := expCfg(5)
	ref, err := tensorlights.RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyShardedConfig(t, exp)

	t.Run("submit-body", func(t *testing.T) {
		s, ts := httpServer(t, testConfig(t))
		body := []byte(`{"config":` + string(legacy) + `}`)
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("legacy submit: %d %s", resp.StatusCode, raw)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		fin := waitTerminal(t, s, st.ID)
		if fin.State != JobDone {
			t.Fatalf("legacy submission settled as %+v", fin)
		}
		got, err := json.Marshal(fin.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("legacy submission result differs:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("journal-record", func(t *testing.T) {
		cfg := testConfig(t)
		// A submitted record with no terminal record: the previous
		// daemon died before running it, so replay re-enqueues it.
		rec := []byte(`{"t":"submitted","id":"j7","hash":"legacy","config":` + string(legacy) + "}\n")
		if err := os.WriteFile(cfg.JournalPath, rec, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.met.recovered.Value(); got != 1 {
			t.Fatalf("recovered %v jobs from the legacy journal, want 1", got)
		}
		s.Start()
		defer s.Kill()
		fin := waitTerminal(t, s, "j7")
		if fin.State != JobDone {
			t.Fatalf("legacy journal job settled as %+v", fin)
		}
		got, err := json.Marshal(fin.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("legacy journal result differs:\n got %s\nwant %s", got, want)
		}
	})
}
