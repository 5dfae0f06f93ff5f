// servesmoke is the CI smoke test for the pepad daemon: it builds the
// real binary, starts it on an ephemeral port, submits the Figure 8
// sweep spec over HTTP, polls the job to completion, fetches the
// rendered table, drains the daemon with SIGTERM and validates the
// run manifest the job left behind — the full serving path, end to
// end, against a real listening socket.
//
// Usage (from the repository root; `make serve-smoke` runs exactly
// this):
//
//	go run ./tools/servesmoke
//	go run ./tools/servesmoke -fig figure8 -keep -dir serve-smoke-run
//
// Exit codes: 0 the whole lifecycle worked, 1 any step failed,
// 2 usage errors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pepatags/internal/obsv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servesmoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "figure8", "built-in figure whose sweep spec to submit")
	dir := fs.String("dir", "", "working directory for the binary and manifests (default: a temp dir)")
	keep := fs.Bool("keep", false, "keep the working directory instead of deleting it")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall budget for the job to complete")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: servesmoke [-fig figure8] [-dir path] [-keep]")
		return 2
	}

	if *dir == "" {
		d, err := os.MkdirTemp("", "servesmoke")
		if err != nil {
			fmt.Fprintln(stderr, "servesmoke:", err)
			return 1
		}
		*dir = d
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "servesmoke:", err)
		return 1
	}
	if !*keep {
		defer os.RemoveAll(*dir)
	}

	if err := smoke(*fig, *dir, *timeout, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "servesmoke:", err)
		return 1
	}
	fmt.Fprintln(stdout, "servesmoke: ok")
	return 0
}

func smoke(fig, dir string, timeout time.Duration, stdout, stderr io.Writer) error {
	// The spec behind the figure, through the same dump path users take.
	spec, err := exec.Command("go", "run", "./cmd/tagseval", "-short", "-spec-dump", fig).Output()
	if err != nil {
		return fmt.Errorf("spec-dump %s: %w", fig, err)
	}

	// Build and start the real daemon binary on an ephemeral port.
	bin := filepath.Join(dir, "pepad")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pepad").CombinedOutput(); err != nil {
		return fmt.Errorf("building pepad: %w\n%s", err, out)
	}
	manifests := filepath.Join(dir, "manifests")
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "-1",
		"-manifest-dir", manifests,
		"-drain-timeout", "60s")
	daemonErr, err := daemon.StderrPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting pepad: %w", err)
	}
	defer daemon.Process.Kill() // no-op after a clean Wait

	// The daemon announces its bound address on stderr; the rest of the
	// transcript is forwarded for diagnosis.
	addrCh := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		sc := bufio.NewScanner(daemonErr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(stderr, "  pepad |", line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("pepad never announced its address")
	}

	// Submit the sweep over real HTTP.
	body, err := json.Marshal(map[string]json.RawMessage{"spec": spec})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST /v1/jobs: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, b)
	}
	var sub struct {
		Job struct {
			ID     string `json:"id"`
			Points int    `json:"points"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return fmt.Errorf("decoding submit response: %w", err)
	}
	resp.Body.Close()
	fmt.Fprintf(stdout, "servesmoke: submitted %s as %s (%d points) to %s\n", fig, sub.Job.ID, sub.Job.Points, base)

	// Poll to completion.
	deadline := time.Now().Add(timeout)
	state := ""
	for state != "done" {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %q after %v", sub.Job.ID, state, timeout)
		}
		r, err := http.Get(base + "/v1/jobs/" + sub.Job.ID)
		if err != nil {
			return fmt.Errorf("GET job: %w", err)
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding job view: %w", err)
		}
		if v.State == "failed" || v.State == "canceled" {
			return fmt.Errorf("job %s %s: %s", sub.Job.ID, v.State, v.Error)
		}
		state = v.State
		time.Sleep(100 * time.Millisecond)
	}

	// The rendered table must come back non-empty.
	r, err := http.Get(base + "/v1/jobs/" + sub.Job.ID + "/result?format=table")
	if err != nil {
		return fmt.Errorf("GET result: %w", err)
	}
	table, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || len(bytes.TrimSpace(table)) == 0 {
		return fmt.Errorf("result: status %d, %d bytes", r.StatusCode, len(table))
	}
	fmt.Fprintf(stdout, "servesmoke: job done, table %d bytes\n", len(table))

	// Drain and require a clean exit. Wait closes the stderr pipe, so
	// the transcript is read to its end, the drain report included,
	// before it.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling pepad: %w", err)
	}
	<-copied
	if err := daemon.Wait(); err != nil {
		return fmt.Errorf("pepad exit: %w", err)
	}

	// The job's manifest must exist and validate.
	m, err := obsv.ReadManifest(filepath.Join(manifests, sub.Job.ID+".json"))
	if err != nil {
		return fmt.Errorf("job manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("job manifest invalid: %w", err)
	}
	if m.Tool != "pepad" || m.Sweep == nil || m.Sweep.Points != sub.Job.Points {
		return fmt.Errorf("job manifest inconsistent: tool %q, sweep %+v", m.Tool, m.Sweep)
	}
	fmt.Fprintf(stdout, "servesmoke: manifest ok (%d points, %d cache hits)\n", m.Sweep.Points, m.Sweep.CacheHits)
	return nil
}
