package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/trace"
)

// The diagnostic bundle is the server's one-request incident artifact:
// a gzipped tar whose entries snapshot everything an operator needs to
// reconstruct what the service was doing — the recorder's ring (request
// chains keyed by request ID beside the code lifecycle they ran) and its
// exemplars, the metrics registry (raw and summarized), a full goroutine
// dump, the shard/arena/tenant stats document, the SLO view, and the
// journal positions that anchor durability claims.  It is served at
// /debug/bundle, captured by the SIGQUIT and panic handlers in
// cmd/vcoded, and saved by the soak drivers on failure.

// bundleEntry is one file inside the archive.
type bundleEntry struct {
	name string
	data []byte
}

func jsonEntry(name string, v any) bundleEntry {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		b = []byte(fmt.Sprintf("{\"error\": %q}", err.Error()))
	}
	return bundleEntry{name: name, data: b}
}

// bundleEntries assembles the archive contents.  Every entry is built
// from a point-in-time snapshot; failures degrade to an error entry
// rather than aborting the bundle (a partial bundle during an incident
// beats none).
func (s *Server) bundleEntries() []bundleEntry {
	now := time.Now()
	meta := map[string]any{
		"written_at":     now.UTC().Format(time.RFC3339Nano),
		"backend":        s.cfg.Backend,
		"shards":         len(s.shards),
		"uptime_sec":     now.Sub(s.started).Seconds(),
		"pid":            os.Getpid(),
		"go_version":     runtime.Version(),
		"goroutines":     runtime.NumGoroutine(),
		"record_enabled": trace.Enabled(),
	}
	entries := []bundleEntry{
		jsonEntry("meta.json", meta),
		jsonEntry("events.json", trace.Spans()),
		jsonEntry("exemplars.json", trace.Exemplars()),
		jsonEntry("stats.json", s.StatsView()),
	}

	var metrics bytes.Buffer
	if err := s.cfg.Registry.WriteJSON(&metrics); err == nil {
		entries = append(entries, bundleEntry{name: "metrics.json", data: metrics.Bytes()})
	}
	summary, _ := s.cfg.Registry.SummarySnapshot(50)
	entries = append(entries, jsonEntry("metrics_summary.json", summary))

	if s.slo != nil {
		entries = append(entries, jsonEntry("slo.json", s.slo.View()))
	}

	positions := map[string]any{"journal_path": ""}
	if j := s.dur.Load(); j != nil {
		positions["journal_path"] = j.path
		positions["journal_lsn"] = j.lsn.Load()
		positions["journal_pending"] = j.pending.Load()
		positions["journal_degraded"] = j.failed.Load()
	}
	entries = append(entries, jsonEntry("positions.json", positions))

	var dump bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&dump, 2)
	}
	entries = append(entries, bundleEntry{name: "goroutines.txt", data: dump.Bytes()})
	return entries
}

// WriteBundle streams the gzipped diagnostic archive to w.
func (s *Server) WriteBundle(w *bytes.Buffer) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	for _, e := range s.bundleEntries() {
		hdr := &tar.Header{
			Name:    e.name,
			Mode:    0o644,
			Size:    int64(len(e.data)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(e.data); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// WriteBundleFile writes the archive atomically, as a compacted journal
// is written (writeAtomic), so a crash mid-write never leaves a torn
// bundle, and returns the final path.  The filename carries a
// timestamp; dir is created if missing.
func (s *Server) WriteBundleFile(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := s.WriteBundle(&buf); err != nil {
		return "", err
	}
	final := filepath.Join(dir, fmt.Sprintf("vcoded-bundle-%s-%s.tar.gz",
		reason, time.Now().UTC().Format("20060102T150405")))
	f, err := disk{}.writeAtomic(final, buf.Bytes())
	if f != nil {
		f.Close()
	}
	return final, err
}

// handleBundle serves the archive at /debug/bundle.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.WriteBundle(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="vcoded-bundle.tar.gz"`)
	w.Header().Set("Content-Length", fmt.Sprintf("%d", buf.Len()))
	_, _ = w.Write(buf.Bytes())
}
