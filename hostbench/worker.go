package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tnpu/internal/serve"
)

// Every measured process is a child of the benchmark: a fresh process per
// cold regeneration, one per warm loop, one per server boot. Its peak RSS
// is then the work's own, and the load generator never shares a heap with
// the system under test.

// worker is a running child process of this binary.
type worker struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	setup float64 // seconds the worker spent setting up, as it reports it
	ready string  // the rest of the ready line (the server URL)
}

// startWorker execs this binary in worker mode and waits for its ready
// line, "ready <set-up seconds> [<url>]".
func startWorker(args ...string) (*worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	line, err := w.out.ReadString('\n')
	f := strings.Fields(line)
	if err == nil && (len(f) < 2 || f[0] != "ready") {
		err = errors.New("no ready line")
	}
	if err == nil {
		w.setup, err = strconv.ParseFloat(f[1], 64)
	}
	if err != nil {
		w.kill()
		return nil, fmt.Errorf("worker %v did not start: %q: %v", args, line, err)
	}
	w.ready = strings.Join(f[2:], " ")
	return w, nil
}

// finish closes the worker's stdin, decodes its last stdout line into
// report, waits for it to exit, and returns its peak RSS in MB.
func (w *worker) finish(report any) (float64, error) {
	w.in.Close()
	data, rerr := io.ReadAll(w.out)
	if err := w.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("worker: %w", err)
	}
	if rerr != nil {
		return 0, rerr
	}
	data = bytes.TrimSpace(data)
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		data = data[i+1:]
	}
	if err := json.Unmarshal(data, report); err != nil {
		return 0, fmt.Errorf("worker report: %w", err)
	}
	ru, ok := w.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("worker: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// kill stops a worker that will not be finished normally.
func (w *worker) kill() {
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

// regenReport is a regen worker's final line.
type regenReport struct {
	Samples []regenSample `json:"samples"`
}

// serveReport is a serve worker's final line: the server Runner's layer
// attribution after the epoch.
type serveReport struct {
	Layers map[string]float64 `json:"layers"`
}

// runWorker is the worker side: mode "boot" sets up a Runner over dir and
// exits, "regen" regenerates over dir until seconds have passed (at least
// once), and "serve" boots a server over dir and serves until stdin
// closes. Each prints a ready line once set up, with the seconds its
// set-up took ("boot" and "serve"; 0 for "regen", whose regenerations time
// their own), and a JSON report line at the end.
func runWorker(mode, dir string, seconds float64, traced bool) int {
	var report any
	var err error
	switch mode {
	case "boot":
		var setup float64
		if _, setup, err = newRunner(dir); err == nil {
			fmt.Println("ready", setup)
			report = struct{}{}
		}
	case "regen":
		fmt.Println("ready 0")
		report, err = regenLoop(dir, seconds, traced)
	case "serve":
		report, err = serveUntilEOF(dir)
	default:
		err = fmt.Errorf("unknown worker mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench worker:", err)
		return 1
	}
	data, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench worker:", err)
		return 1
	}
	fmt.Printf("%s\n", data)
	return 0
}

func regenLoop(dir string, seconds float64, traced bool) (regenReport, error) {
	var rep regenReport
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		var tr *tracer
		if traced && i%2 == 0 {
			tr = &tracer{}
		}
		s, err := regenerate(dir, tr)
		if err != nil {
			return rep, err
		}
		rep.Samples = append(rep.Samples, s)
	}
	return rep, nil
}

// serveUntilEOF boots a tnpu-serve server over the empty cache directory
// dir on a loopback port, announces its set-up time (serve.New and the
// listen) and its URL, and serves until stdin closes. It then drains the
// server and reports its Runner's layers.
func serveUntilEOF(dir string) (serveReport, error) {
	memo := filepath.Join(dir, "memo")
	if err := os.MkdirAll(memo, 0o755); err != nil { // untimed, as in newRunner
		return serveReport{}, err
	}
	start := time.Now()
	srv, err := serve.New(serve.Options{CacheDir: dir, MemoDir: memo, Workers: nproc})
	if err != nil {
		return serveReport{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serveReport{}, err
	}
	setup := time.Since(start).Seconds()
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println("ready", setup, "http://"+ln.Addr().String())

	io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return serveReport{}, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return serveReport{}, err
	}
	layers, err := attribute(srv.Runner())
	return serveReport{Layers: layers}, err
}
