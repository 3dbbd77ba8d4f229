// Package server turns the CLI reproduction into a crash-safe
// simulation-as-a-service daemon: an HTTP/JSON control plane that
// accepts ExperimentConfig submissions, runs them on the parallel sweep
// engine behind a bounded worker queue, and survives worker panics,
// stuck trials, process kills, and overload.
//
// Robustness discipline:
//
//   - Write-ahead JSONL journal: every job transition (submitted →
//     running → done/failed/cancelled) is appended and fsynced before
//     it is acknowledged, so a killed-and-restarted daemon recovers its
//     queue and re-runs interrupted jobs exactly once. Simulations are
//     deterministic given a seed, so a re-run reproduces the lost
//     result byte for byte.
//   - Per-job deadlines via context.Context threaded down through
//     sweep.Engine into the event kernel: a stuck trial is abandoned
//     between events, never wedging a worker forever.
//   - Panic isolation with bounded retry + exponential backoff +
//     seeded jitter before a job is marked failed.
//   - Graceful drain on SIGTERM: stop admitting, finish or abandon
//     in-flight jobs (abandoned jobs stay journaled as running and
//     re-run on the next start), flush the journal.
//   - Overload shedding: a bounded queue returns 429 + Retry-After, a
//     per-client token bucket rate-limits submission storms, and a
//     content-addressed (config, seed) cache dedupes identical
//     submissions instead of re-executing them.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	tensorlights "repro"
)

// Journal record types, in lifecycle order. A job with no terminal
// record (done/failed/cancelled) at replay time was interrupted by a
// crash and is re-enqueued.
const (
	recSubmitted = "submitted"
	recRunning   = "running"
	recDone      = "done"
	recFailed    = "failed"
	recCancelled = "cancelled"
)

// Record is one append-only journal line. Only submitted records carry
// the config; terminal records carry the outcome. Records never carry
// wall-clock timestamps: replayed state must be independent of when the
// daemon (re)started, and results stay byte-comparable across runs.
type Record struct {
	T       string                         `json:"t"`
	ID      string                         `json:"id"`
	Hash    string                         `json:"hash,omitempty"`
	Attempt int                            `json:"attempt,omitempty"`
	Config  *tensorlights.ExperimentConfig `json:"config,omitempty"`
	// TimeoutSec is the per-job deadline requested at submission
	// (0 = server default).
	TimeoutSec float64              `json:"timeout_sec,omitempty"`
	Result     *tensorlights.Result `json:"result,omitempty"`
	Error      string               `json:"error,omitempty"`
}

// Journal is the append-only JSONL write-ahead log. Append marshals,
// writes, and fsyncs under a mutex: a record either hits the disk
// whole or the crash happened first — replay tolerates a torn final
// line, so the journal is valid after a kill at any byte.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// compactSuffix names the temporary file CompactJournal writes before
// atomically renaming it over the journal. A stale one on disk means a
// crash hit mid-compaction before the rename, so the original journal
// is still authoritative and the temp is garbage.
const compactSuffix = ".compact"

// parseJournal decodes a journal byte image. It returns the records in
// append order and the length of the valid newline-terminated prefix.
// An unterminated or unparseable final line — the signature of a crash
// mid-append — is dropped rather than failing recovery: Append only
// acknowledges a record after writing record + newline and fsyncing,
// so a torn tail was by construction never acknowledged. Corruption
// anywhere earlier is an error, because silently skipping acknowledged
// records would lose jobs.
func parseJournal(path string, data []byte) (recs []Record, good int, err error) {
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Torn tail: the final append never completed, so the
			// record was never acknowledged. Drop it.
			break
		}
		line := data[off : off+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				if len(bytes.TrimSpace(data[off+nl+1:])) > 0 {
					return nil, 0, fmt.Errorf("server: journal %s corrupt mid-file at byte %d: %v", path, off, err)
				}
				break // corrupt final line: same torn-append case
			}
			recs = append(recs, r)
		}
		off += nl + 1
		good = off
	}
	return recs, good, nil
}

// OpenJournal replays the journal at path (creating it if absent) and
// opens it for appending. It returns the replayed records in append
// order, truncating a torn final line (see parseJournal) and removing
// any compaction temp left by a crash mid-rotation.
func OpenJournal(path string) (*Journal, []Record, error) {
	// A leftover temp means the compaction rename never happened; the
	// original journal is complete and the temp is dead weight.
	_ = os.Remove(path + compactSuffix)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: read journal: %w", err)
	}
	recs, good, err := parseJournal(path, data)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: truncate journal tail: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: seek journal: %w", err)
	}
	return &Journal{f: f, path: path}, recs, nil
}

// Append writes one record and fsyncs before returning: once Append
// returns, the transition survives SIGKILL.
func (j *Journal) Append(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("server: marshal journal record: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("server: journal %s closed", j.path)
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("server: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("server: sync journal: %w", err)
	}
	return nil
}

// Sync flushes the journal file to disk (drain calls it once more on
// the way out; every Append already synced itself).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// CompactJournal rewrites the journal at path, dropping every record
// that replay makes redundant. For a job with a terminal record only
// the submitted record, the last running record (so attempt counts
// survive) and the final terminal record are kept; for a job still in
// flight only the submitted record is kept, because recovery resets
// interrupted jobs to queued with a fresh attempt budget anyway. The
// compacted log is therefore proportional to the job count, not the
// attempt count.
//
// The rewrite is crash-safe at any byte: the new log is written to
// path+".compact", fsynced, and renamed over the original in one
// atomic step (with the directory synced after). A kill before the
// rename leaves the untouched original plus a temp that OpenJournal
// discards; a kill after leaves the complete compacted log. When
// nothing would be dropped the journal is left alone.
func CompactJournal(path string) (kept, dropped int, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("server: compact journal: %w", err)
	}
	recs, good, err := parseJournal(path, data)
	if err != nil {
		return 0, 0, err
	}
	type jobRecs struct {
		submitted   *Record
		lastRunning *Record
		terminal    *Record
	}
	byID := map[string]*jobRecs{}
	var order []string
	for i := range recs {
		r := &recs[i]
		jr := byID[r.ID]
		if jr == nil {
			jr = &jobRecs{}
			byID[r.ID] = jr
			order = append(order, r.ID)
		}
		switch r.T {
		case recSubmitted:
			if jr.submitted == nil {
				jr.submitted = r
			}
		case recRunning:
			jr.lastRunning = r
		case recDone, recFailed, recCancelled:
			jr.terminal = r
		}
	}
	var out []*Record
	for _, id := range order {
		jr := byID[id]
		if jr.submitted == nil {
			continue // orphan records for a job never submitted: drop
		}
		out = append(out, jr.submitted)
		if jr.terminal != nil {
			if jr.lastRunning != nil {
				out = append(out, jr.lastRunning)
			}
			out = append(out, jr.terminal)
		}
	}
	kept = len(out)
	dropped = len(recs) - kept
	if dropped == 0 && good == len(data) {
		return kept, 0, nil
	}

	tmp := path + compactSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, fmt.Errorf("server: compact journal: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, r := range out {
		if err := enc.Encode(r); err != nil {
			f.Close()
			os.Remove(tmp)
			return 0, 0, fmt.Errorf("server: compact journal: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("server: compact journal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("server: compact journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("server: compact journal: %w", err)
	}
	// Sync the directory so the rename itself survives a power cut;
	// best-effort, as some filesystems refuse directory fsync.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return kept, dropped, nil
}
