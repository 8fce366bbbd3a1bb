package main

// The server under test: cmd/mpserved built from this checkout, run as
// a child on 127.0.0.1:0, observed only from outside — its banner, its
// /proc entries, its status endpoints, and the registry dump it prints
// when SIGTERM drains it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// pinnedFlags is every mpserved flag the harness passes.  None selects
// an ablation path, so those can be deleted without touching bench/.
var pinnedFlags = []string{"addr", "shards", "procs", "tick", "deadline", "rebalance", "quantum", "pubsub", "mlalloc"}

// repoRoot finds the module root: the working directory (go run ./bench)
// or, for go test, the parent of the bench directory.  It deliberately
// looks no further up, so that a copy of bench/ alone fails at once.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, root := range []string{dir, filepath.Dir(dir)} {
		mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if _, serr := os.Stat(filepath.Join(root, "cmd", "mpserved")); err == nil && serr == nil && bytes.HasPrefix(mod, []byte("module repro\n")) {
			return root, nil
		}
	}
	return "", errors.New("run from the root of the repro module: go run ./bench")
}

// buildServer compiles cmd/mpserved into outDir and returns the binary.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "mpserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mpserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mpserved: %v\n%s", err, out)
	}
	return bin, nil
}

// checkFlags fails fast if the built server lacks a flag the harness
// depends on.
func checkFlags(bin string) error {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 by Go version; only the text matters
	for _, f := range pinnedFlags {
		if !regexp.MustCompile(`(?m)^\s+-` + f + `\b`).Match(out) {
			return fmt.Errorf("mpserved -h lacks -%s, which bench depends on", f)
		}
	}
	return nil
}

// child is one running mpserved.
type child struct {
	cmd    *exec.Cmd
	addr   string
	out    *bytes.Buffer // stdout after the banner: the drain dump
	copied chan error
	errlog *bytes.Buffer
}

var bannerAddr = regexp.MustCompile(`listening on (\S+)`)

// boot starts mpserved with the given flags on an ephemeral port and
// returns once /healthz answers 200.
func boot(bin string, flags []string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, out: &bytes.Buffer{}, copied: make(chan error, 1), errlog: &bytes.Buffer{}}
	cmd.Stderr = ch.errlog
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch.remember()
	br := bufio.NewReader(stdout)
	banner, err := br.ReadString('\n')
	m := bannerAddr.FindStringSubmatch(banner)
	if err != nil || m == nil {
		cmd.Process.Kill()
		cmd.Wait()
		ch.forget()
		return nil, fmt.Errorf("mpserved printed no listening banner (%q, %v): %s", banner, err, ch.errlog)
	}
	ch.addr = m[1]
	go func() {
		_, err := ch.out.ReadFrom(br)
		ch.copied <- err
	}()
	deadline := time.Now().Add(ioTimeout)
	for {
		status, _, err := get(ch.addr, "/healthz")
		if err == nil && status == 200 {
			return ch, nil
		}
		if time.Now().After(deadline) {
			ch.kill()
			return nil, fmt.Errorf("mpserved never answered /healthz: status %d, %v", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (ch *child) kill() {
	ch.cmd.Process.Kill()
	<-ch.copied
	ch.cmd.Wait()
	ch.forget()
}

// running is every child not yet reaped, so that a harness told to stop
// (interrupt, closed stdout) takes its server down with it.
var running struct {
	sync.Mutex
	set map[*child]bool
}

func (ch *child) remember() {
	running.Lock()
	defer running.Unlock()
	if running.set == nil {
		running.set = map[*child]bool{}
	}
	running.set[ch] = true
}

func (ch *child) forget() {
	running.Lock()
	defer running.Unlock()
	delete(running.set, ch)
}

// killRunning kills every child still running; the caller is exiting.
func killRunning() {
	running.Lock()
	defer running.Unlock()
	for ch := range running.set {
		ch.cmd.Process.Kill()
	}
}

// drainLimit is how long a SIGTERMed server may take to exit.
const drainLimit = 10 * time.Second

// drain SIGTERMs the server, waits for it to exit by itself with status
// 0, and returns the registry dump it printed on the way out.
func (ch *child) drain() (dump, error) {
	if err := ch.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		ch.kill()
		return nil, err
	}
	timer := time.AfterFunc(drainLimit, func() { ch.cmd.Process.Kill() })
	<-ch.copied
	err := ch.cmd.Wait()
	ch.forget()
	if !timer.Stop() {
		return nil, fmt.Errorf("mpserved still running %s after SIGTERM; killed", drainLimit)
	}
	if err != nil {
		return nil, fmt.Errorf("mpserved exited with %v after SIGTERM: %s", err, ch.errlog)
	}
	return parseDump(ch.out.String()), nil
}

// cpuTicks is the child's utime+stime so far, in clock ticks.
func (ch *child) cpuTicks() int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", ch.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	s, _ := strconv.ParseInt(f[12], 10, 64)
	return u + s
}

// clockTickUs is the length of one /proc clock tick: USER_HZ is 100 on
// every Linux ABI Go supports.
const clockTickUs = 10_000

// rssMB is the child's peak resident set (VmHWM), in MB.
func (ch *child) rssMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", ch.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// entry is one registry line: a counter's value, or a histogram's
// sample count and mean.
type entry struct {
	n    float64
	mean float64
}

// dump is the registries a server printed, by section ("front",
// "shard 0", …; "" for a single server's only registry).
type dump map[string]map[string]entry

var (
	dumpHeader = regexp.MustCompile(`^# (.+) registry$`)
	dumpLine   = regexp.MustCompile(`^\s+(\S+)\s+(-?\d+)(?:\s+mean (-?[\d.]+))?$`)
)

// parseDump reads metrics.Snapshot.Format output: "# <name> registry"
// headers, "  name  value" counters, "  name  count  mean m" histograms.
func parseDump(text string) dump {
	d := dump{}
	section := ""
	for _, ln := range strings.Split(text, "\n") {
		if m := dumpHeader.FindStringSubmatch(ln); m != nil {
			section = m[1]
			continue
		}
		m := dumpLine.FindStringSubmatch(ln)
		if m == nil {
			continue
		}
		if d[section] == nil {
			d[section] = map[string]entry{}
		}
		e := entry{}
		e.n, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			e.mean, _ = strconv.ParseFloat(m[3], 64)
		}
		d[section][m[1]] = e
	}
	return d
}

// sum adds a counter (or a histogram's sample count) over every section.
func (d dump) sum(name string) float64 {
	var s float64
	for _, reg := range d {
		s += reg[name].n
	}
	return s
}

// total is a histogram's sum of observations over every section.
func (d dump) total(name string) float64 {
	var s float64
	for _, reg := range d {
		s += reg[name].n * reg[name].mean
	}
	return s
}

// mean is a histogram's mean over every section, weighted by count.
func (d dump) mean(name string) float64 { return ratio(d.total(name), d.sum(name)) }

// ratio is a/b, or 0 when there is no base to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
