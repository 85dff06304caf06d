package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"softerror/internal/server"
)

// serve-mixed's server runs in a child process of its own ("-child
// server"): server.New at its defaults, so Workers is the process's
// GOMAXPROCS, behind a loopback listener. The open-loop client stays in the
// unit's process, so its HTTP and JSON work is not done on the server's Ps.
//
// The two talk over the server child's stdin and stdout, one line each:
// the child announces itself with a serverHello once it listens, answers
// each "stats" line with a serverStats and each "rss" line with its peak
// RSS since the last "rss", and drains and exits when its stdin closes.

// asMainEnv makes a test binary run as the benchmark binary, so a unit
// under test can start its server child from os.Executable.
const asMainEnv = "PERFBENCH_AS_MAIN"

type serverHello struct {
	Addr       string `json:"addr"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// serverStats is the server process's runtime activity so far.
type serverStats struct {
	memDelta
	// Spans are the handler spans of requests that named a client span,
	// in nanoseconds of the Unix clock; only a traced server records them.
	Spans []span `json:"spans,omitempty"`
}

// memDelta is runtime activity: bytes allocated, GC cycles and GC pause.
type memDelta struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	NumGC      uint32 `json:"num_gc"`
	PauseNs    uint64 `json:"pause_ns"`
}

// sub is the activity between an earlier reading and this one.
func (s serverStats) sub(earlier serverStats) memDelta {
	return memDelta{
		AllocBytes: s.AllocBytes - earlier.AllocBytes,
		NumGC:      s.NumGC - earlier.NumGC,
		PauseNs:    s.PauseNs - earlier.PauseNs,
	}
}

// runServerChild serves until in closes.
func runServerChild(traced bool, in io.Reader, out io.Writer) error {
	srv := server.New(server.Config{})
	var cur atomic.Pointer[tracer]
	if traced {
		// A zero-based clock: span times are Unix nanoseconds, which the
		// client's tracer can place on its own time line.
		cur.Store(&tracer{t0: time.Unix(0, 0)})
	}
	hs, addr, err := startServer(traceHandler(&cur, srv))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	err = enc.Encode(serverHello{Addr: addr, GOMAXPROCS: runtime.GOMAXPROCS(0)})
	sc := bufio.NewScanner(in)
	for err == nil && sc.Scan() {
		switch sc.Text() {
		case "stats":
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			err = enc.Encode(serverStats{
				memDelta: memDelta{AllocBytes: ms.TotalAlloc, NumGC: ms.NumGC, PauseNs: ms.PauseTotalNs},
				Spans:    cur.Load().snapshot(),
			})
		case "rss":
			err = enc.Encode(peakRSSMB())
			// Writing 5 to clear_refs resets the peak (VmHWM) to the
			// current RSS, so the next reading covers the next window
			// only. Where that is not possible the readings stay
			// cumulative.
			os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
		default:
			err = fmt.Errorf("unknown command %q", sc.Text())
		}
	}
	if err == nil {
		err = sc.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	srv.Drain(ctx)
	srv.Close()
	return err
}

// serverProc is the client's handle on a server child.
type serverProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	hello serverHello
}

func startServerProc(traced bool) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := 0
	if traced {
		trace = 1
	}
	c := exec.Command(exe, "-child", "server", "-workload", "serve-mixed", "-trace", strconv.Itoa(trace))
	c.Env = append(os.Environ(), asMainEnv+"=1")
	c.Stderr = os.Stderr
	p := &serverProc{cmd: c}
	if p.in, err = c.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.out = bufio.NewReader(stdout)
	if err := c.Start(); err != nil {
		return nil, err
	}
	if err := p.read(&p.hello); err != nil {
		p.stop()
		return nil, fmt.Errorf("server child: %w", err)
	}
	return p, nil
}

func (p *serverProc) read(v any) error {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// rss is the server's peak RSS since the previous call, in MiB.
func (p *serverProc) rss() (float64, error) {
	var mb float64
	if _, err := fmt.Fprintln(p.in, "rss"); err != nil {
		return 0, err
	}
	err := p.read(&mb)
	return mb, err
}

func (p *serverProc) stats() (serverStats, error) {
	var st serverStats
	if _, err := fmt.Fprintln(p.in, "stats"); err != nil {
		return st, err
	}
	err := p.read(&st)
	return st, err
}

// stop closes the child's stdin and waits for it to drain and exit.
func (p *serverProc) stop() {
	p.in.Close()
	io.Copy(io.Discard, p.out)
	p.cmd.Wait()
}
