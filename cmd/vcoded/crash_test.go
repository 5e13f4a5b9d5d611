package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// The crash soak is the recovery harness for the journaled server: it
// repeatedly SIGKILLs a real vcoded process mid-checkpoint under load —
// some cycles with injected journal write/fsync faults, some with a bit
// flipped in the journal tail after the kill — and holds the durability
// contract on every restart:
//
//   - every key acknowledged durable=true serves its exact expected
//     result after recovery.  After a bit flip, only keys acknowledged in
//     the flipped journal generation may be gone (404): every earlier key
//     was folded into the snapshot when that process booted.  A recovered
//     key never computes a different answer;
//   - no process panics (or, under -race, reports a data race) and every
//     failure is typed;
//   - restarts alternate the shard count, and a final restart with yet
//     another count verifies resharded restore conserves the residency
//     ledger (Σ tenant resident bytes == Σ shard unit bytes) and that a
//     durable ack is explainable from the diagnostic bundle alone.
//
// The process under test is this test binary re-executed into main(), so
// `go test -race` instruments the server that is being killed.
const childMarker = "VCODED_CRASH_SOAK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childMarker) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Soak sizes.  A cycle mints one new key every crashMintEvery — so every
// journal generation a kill can land in has records — and at most
// crashAttempts of them, durably acknowledged or not.  Each shard of every
// child holds crashEntries programs, more than the whole soak mints, so no
// acknowledged key is ever evicted, whatever the seed.
const (
	crashCycles    = 20 // 2 under -short
	crashMintEvery = 20 * time.Millisecond
	crashAttempts  = 24
	crashEntries   = (crashCycles + 1) * crashAttempts
)

// acked is one durably-acknowledged key: its expected result and the
// cycle that acknowledged it.  The ledger maps every such key to one.
type acked struct {
	want  int64
	cycle int
}

// child is one vcoded process under test.
type child struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

func startChild(dir string, shards int, chaos bool, seed int64) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{
		"-addr", addr,
		"-snapshot", filepath.Join(dir, "snap.vcsnap"),
		"-journal", filepath.Join(dir, "journal.vcjrnl"),
		"-bundle-dir", dir,
		"-checkpoint-interval", "150ms",
		"-fsync-interval", "1ms",
		"-drain-timeout", "2s",
		"-shards", strconv.Itoa(shards),
		"-max-entries", strconv.Itoa(crashEntries),
		"-default-resident-bytes", "16777216",
		"-default-compile-concurrency", "16",
	}
	if chaos {
		args = append(args,
			"-chaos-seed", strconv.FormatInt(seed, 10),
			"-chaos-journal-write-rate", "0.03",
			"-chaos-journal-sync-rate", "0.03",
		)
	}
	c := &child{cmd: exec.Command(os.Args[0], args...), base: "http://" + addr}
	c.cmd.Env = append(os.Environ(), childMarker+"=1")
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// kill SIGKILLs the child and reaps it.  cmd.Wait also joins the
// stderr-copier goroutine, so reading c.stderr afterwards is safe.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// stop drains the child gracefully (SIGTERM) and waits for exit.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		c.kill()
		return fmt.Errorf("child did not drain within 15s of SIGTERM")
	}
}

// misbehaved reports a panic or a race-detector report on the (reaped)
// child's stderr.
func (c *child) misbehaved() bool {
	s := c.stderr.String()
	return strings.Contains(s, "panic:") || strings.Contains(s, "DATA RACE")
}

func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within %v", base, timeout)
}

// crashResp is the slice of the exec response the harness needs.
type crashResp struct {
	status  int
	key     string
	durable bool
	result  int64
	code    string
}

func crashExec(client *http.Client, base string, body map[string]any) (crashResp, error) {
	raw, _ := json.Marshal(body)
	resp, err := client.Post(base+"/v1/exec", "application/json", bytes.NewReader(raw))
	if err != nil {
		return crashResp{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Key     string      `json:"key"`
		Durable bool        `json:"durable"`
		Result  json.Number `json:"result"`
		Error   *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return crashResp{}, fmt.Errorf("undecodable body (status %d): %v", resp.StatusCode, err)
	}
	r := crashResp{status: resp.StatusCode, key: out.Key, durable: out.Durable}
	if out.Error != nil {
		r.code = out.Error.Code
	}
	if out.Result != "" {
		r.result, _ = out.Result.Int64()
	}
	return r, nil
}

// mint compiles and runs the n-th never-seen program; want is its result.
func mint(client *http.Client, base string, n int64, reqID string) (r crashResp, want int64, err error) {
	a, b := n*31+7, n%997
	r, err = crashExec(client, base, map[string]any{
		"lang":       "tinyc",
		"source":     fmt.Sprintf("int main(int n) { return n * %d + %d; }", a, b),
		"args":       []int{3},
		"request_id": reqID,
	})
	return r, 3*a + b, err
}

// runLoad fires traffic at the child until stop closes: a new program
// compiled and run every crashMintEvery, its durable ack recorded in the
// ledger, and ledger keys re-executed in between, so the checkpoint the
// kill lands in always has traffic behind it.
func runLoad(client *http.Client, base string, ledger map[string]acked, keyCtr *atomic.Int64, cycle int, stop <-chan struct{}) (ackedWrong []string) {
	const workers = 4
	hot := make([]string, 0, len(ledger))
	for key := range ledger {
		hot = append(hot, key)
	}
	var mu sync.Mutex // guards ledger and ackedWrong
	var attempted, nextMint atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + keyCtr.Load()))
			for {
				select {
				case <-stop:
					return
				default:
				}
				now, gate := time.Now().UnixNano(), nextMint.Load()
				switch {
				case now >= gate && nextMint.CompareAndSwap(gate, now+int64(crashMintEvery)) && attempted.Add(1) <= crashAttempts:
					r, want, err := mint(client, base, keyCtr.Add(1), "")
					if err != nil || r.status != http.StatusOK {
						continue // the kill may race the request; only acks matter
					}
					mu.Lock()
					if r.result != want {
						ackedWrong = append(ackedWrong, fmt.Sprintf("%s: acked %d want %d", r.key, r.result, want))
					} else if r.durable {
						ledger[r.key] = acked{want, cycle}
					}
					mu.Unlock()
				case len(hot) > 0:
					_, _ = crashExec(client, base, map[string]any{"key": hot[rng.Intn(len(hot))], "args": []int{3}})
				default:
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	return ackedWrong
}

// verifyLedger checks every acknowledged key against the restarted
// server.  flipped is the cycle whose journal generation had a bit
// flipped before this boot (-1 for none): its keys may come back
// not_found, and are pruned; nothing else may.
func verifyLedger(client *http.Client, base string, ledger map[string]acked, flipped int) (ok, dropped int, violations []string) {
	for key, a := range ledger {
		r, err := crashExec(client, base, map[string]any{"key": key, "args": []int{3}})
		switch {
		case err != nil:
			violations = append(violations, fmt.Sprintf("%s: transport: %v", key, err))
		case r.status == http.StatusOK && r.result == a.want:
			ok++
		case r.status == http.StatusNotFound && a.cycle == flipped:
			delete(ledger, key)
			dropped++
		default:
			violations = append(violations, fmt.Sprintf("%s (acked in cycle %d): status=%d code=%q result=%d want=%d",
				key, a.cycle, r.status, r.code, r.result, a.want))
		}
	}
	return ok, dropped, violations
}

// flipJournalTail flips one bit in the last quarter of the journal's
// records — simulated disk corruption the next recovery must survive
// (truncated replay, typed log line, no panic, no wrong answers).  It
// reports false when the kill landed just after a rotation and the file
// holds no record to corrupt.
func flipJournalTail(path string, rng *rand.Rand) (bool, error) {
	const header = 7 // magic + version: a separate test's job
	data, err := os.ReadFile(path)
	if err != nil || len(data) <= header {
		return false, err
	}
	i := len(data) - 1 - rng.Intn((len(data)-header+3)/4)
	data[i] ^= 1 << uint(rng.Intn(8))
	return true, os.WriteFile(path, data, 0o644)
}

// fetchBundle returns a live child's /debug/bundle archive.
func fetchBundle(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Get(base + "/debug/bundle")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/bundle: %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// flightEvent is the slice of a flight-recorder event the harness checks
// (decoded from bundle JSON, not linked against the package, so this
// also pins the wire format).
type flightEvent struct {
	Stage   string `json:"stage"`
	ReqID   string `json:"request_id"`
	Verdict string `json:"verdict"`
	LSN     uint64 `json:"lsn"`
}

// bundleFlightEvents decodes the flight-recorder ring out of a bundle.
func bundleFlightEvents(bundle []byte) ([]flightEvent, error) {
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		return nil, fmt.Errorf("bundle not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("bundle has no flight.json")
		}
		if err != nil {
			return nil, fmt.Errorf("bundle tar: %v", err)
		}
		if hdr.Name != "flight.json" {
			continue
		}
		var events []flightEvent
		if err := json.NewDecoder(tr).Decode(&events); err != nil {
			return nil, fmt.Errorf("flight.json: %v", err)
		}
		return events, nil
	}
}

// verifyFlightChain drives one fresh durably-acked exec with a known
// request ID against the finale child, pulls its diagnostic bundle, and
// asserts the flight ring reconstructs the complete
// admit→journal→compile→exec→outcome chain for that request — the
// incident-debugging contract: any durable ack is explainable from a
// bundle alone.
func verifyFlightChain(client *http.Client, base string, keyCtr *atomic.Int64) (string, error) {
	const reqID = "crash-finale-chain"
	r, _, err := mint(client, base, keyCtr.Add(1), reqID)
	if err != nil || r.status != http.StatusOK {
		return "", fmt.Errorf("chain exec: status=%d err=%v", r.status, err)
	}
	if !r.durable {
		return "", fmt.Errorf("chain exec not durable on a ready, fault-free server (key %s)", r.key)
	}
	bundle, err := fetchBundle(client, base)
	if err != nil {
		return "", err
	}
	events, err := bundleFlightEvents(bundle)
	if err != nil {
		return "", err
	}
	var got []string
	var lsn uint64
	for _, e := range events {
		if e.ReqID != reqID {
			continue
		}
		got = append(got, e.Stage+":"+e.Verdict)
		if e.Stage == "journal" {
			lsn = e.LSN
		}
	}
	chain := strings.Join(got, " → ")
	if want := "admit:ok → journal:durable → cache:compiled → exec:ok → outcome:ok"; chain != want {
		return "", fmt.Errorf("chain for %s = %q, want %q", reqID, chain, want)
	}
	if lsn == 0 {
		return "", fmt.Errorf("chain for %s: durable journal event carries no LSN", reqID)
	}
	return fmt.Sprintf("%s (lsn=%d): %s", reqID, lsn, chain), nil
}

// crashSoak runs one seed and returns how many cycles flipped a journal bit.
func crashSoak(t *testing.T, seed int64) (flipCycles int) {
	cycles := crashCycles
	if testing.Short() {
		cycles /= 10
	}
	dir := t.TempDir()
	client := &http.Client{Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(seed))
	ledger := make(map[string]acked)
	var keyCtr atomic.Int64
	keyCtr.Store(seed * 1000)
	var verified, dropped, chaosCycles int
	flipped := -1

	// boot starts a child and holds it to the recovery contract: everything
	// durably acked before the last kill serves its exact result now.
	boot := func(what string, shards int, chaos bool, chaosSeed int64) *child {
		c, err := startChild(dir, shards, chaos, chaosSeed)
		if err != nil {
			t.Fatalf("%s: start: %v", what, err)
		}
		if err := waitReady(client, c.base, 30*time.Second); err != nil {
			c.kill()
			t.Fatalf("%s: %v\n--- child stderr ---\n%s", what, err, c.stderr.String())
		}
		ok, gone, violations := verifyLedger(client, c.base, ledger, flipped)
		verified, dropped, flipped = verified+ok, dropped+gone, -1
		if len(violations) > 0 {
			fail(t, client, c, seed, "%s: %d acknowledged keys wrong after recovery, e.g. %v",
				what, len(violations), violations[:min(len(violations), 5)])
		}
		return c
	}

	for cycle := 0; cycle < cycles; cycle++ {
		what := fmt.Sprintf("cycle %d", cycle)
		shards := 2
		if cycle%7 == 3 {
			shards = 3 // restart into a different shard count mid-soak
		}
		chaos := cycle%3 == 1
		if chaos {
			chaosCycles++
		}
		c := boot(what, shards, chaos, seed+int64(cycle))

		// Load until the kill timer fires — 100–400ms, against a 150ms
		// checkpoint interval, so kills land in every rotation window.
		stop := make(chan struct{})
		killAfter := time.Duration(100+rng.Intn(300)) * time.Millisecond
		timer := time.AfterFunc(killAfter, func() { close(stop) })
		ackedWrong := runLoad(client, c.base, ledger, &keyCtr, cycle, stop)
		timer.Stop()
		c.kill()
		if len(ackedWrong) > 0 {
			t.Fatalf("%s: wrong results at ack time: %v", what, ackedWrong[:1])
		}
		if c.misbehaved() {
			t.Fatalf("%s: child panicked or raced\n--- child stderr ---\n%s", what, c.stderr.String())
		}
		if cycle%5 == 4 {
			did, err := flipJournalTail(filepath.Join(dir, "journal.vcjrnl"), rng)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if did {
				flipped = cycle
				flipCycles++
			}
		}
		t.Logf("%s: shards=%d chaos=%-5v killed after %3dms, ledger=%d", what, shards, chaos, killAfter.Milliseconds(), len(ledger))
	}

	// Finale: restore the whole soak's state into yet another shard
	// count; boot verifies every key.
	c := boot("finale", 5, false, seed)
	if n := len(ledger); n < 2*cycles {
		fail(t, client, c, seed, "finale: only %d keys were durably acknowledged over %d cycles", n, cycles)
	}
	chain, err := verifyFlightChain(client, c.base, &keyCtr)
	if err != nil {
		fail(t, client, c, seed, "finale: %v", err)
	}
	var stats server.Stats
	resp, err := client.Get(c.base + "/v1/stats")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
	}
	if err != nil {
		fail(t, client, c, seed, "finale: /v1/stats: %v", err)
	}
	var tenantBytes, shardBytes int64
	for _, tn := range stats.Tenants {
		tenantBytes += tn.ResidentBytes
	}
	for _, sh := range stats.Shards {
		shardBytes += sh.UnitBytes
	}
	if tenantBytes != shardBytes {
		fail(t, client, c, seed, "finale: residency ledger broken after resharding: tenants=%dB shards=%dB", tenantBytes, shardBytes)
	}
	if stats.Resharded == 0 {
		fail(t, client, c, seed, "finale: resharded counter is zero after a 2/3-shard soak restored into 5 shards")
	}
	if err := c.stop(); err != nil {
		t.Fatalf("finale: %v\n--- child stderr ---\n%s", err, c.stderr.String())
	}
	if c.misbehaved() {
		t.Fatalf("finale: child panicked or raced\n--- child stderr ---\n%s", c.stderr.String())
	}
	t.Logf("%d cycles (%d chaos, %d bit-flip): all %d acked keys served by the finale, %d verifications, %d dropped with a flipped journal generation, recovery_ms=%d, resharded=%d, ledger %dB conserved",
		cycles, chaosCycles, flipCycles, len(ledger), verified, dropped, stats.RecoveryMS, stats.Resharded, tenantBytes)
	t.Logf("flight chain reconstructed for %s", chain)
	return flipCycles
}

// fail saves the live child's diagnostic bundle under os.TempDir() (best
// effort: a child too broken to serve it still fails with the original
// violation), kills the child and fails the test.
func fail(t *testing.T, client *http.Client, c *child, seed int64, format string, args ...any) {
	t.Helper()
	if bundle, err := fetchBundle(client, c.base); err == nil {
		path := filepath.Join(os.TempDir(), fmt.Sprintf("vcoded-bundle-crash-soak-seed%d.tar.gz", seed))
		if os.WriteFile(path, bundle, 0o644) == nil {
			t.Logf("diagnostic bundle written to %s", path)
		}
	}
	c.kill()
	t.Logf("--- child stderr ---\n%s", c.stderr.String())
	t.Fatalf(format, args...)
}

// TestCrashSoak runs the soak on CI's seed and on one the flag-driven
// harness it replaces failed on (it capped durable acks, not attempts, so
// chaos cycles minted keys until acknowledged ones were evicted).
func TestCrashSoak(t *testing.T) {
	var flips atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for _, seed := range []int64{11, 13} {
			t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
				t.Parallel()
				flips.Add(int64(crashSoak(t, seed)))
			})
		}
	})
	if !testing.Short() && !t.Failed() && flips.Load() == 0 {
		t.Error("no bit-flip cycle found a journal record to corrupt")
	}
}
