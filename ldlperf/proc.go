package main

// ldlserver processes and the line-protocol client the harness drives
// them with.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running ldlserver process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the log copier has seen EOF
}

// startServer launches ldlserver on a loopback port the kernel picks
// and returns once it is accepting connections.
func startServer(bin, logPath string, args ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A server must not outlive the harness, even when the harness is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				addrc <- a
			}
		}
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		s.cmd.Wait()
		return nil, fmt.Errorf("ldlserver exited before serving (log %s)", logPath)
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ldlserver did not start within 120s (log %s)", logPath)
	}
}

// stop asks the server to shut down (SIGTERM drains and, when durable,
// checkpoints) and waits for it to exit, killing it after a grace
// period.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.cmd.Wait()
}

// kill ends the server at once, skipping the shutdown checkpoint, and
// waits for it to exit.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// procField reads one numeric field of a /proc/<pid> file.
func (s *server) procField(file, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", s.cmd.Process.Pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/%s", key, s.cmd.Process.Pid, file)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	kb, err := s.procField("status", "VmHWM")
	return float64(kb) / 1024, err
}

// writeBytes is the bytes the process has caused to be written to
// storage.
func (s *server) writeBytes() (int64, error) { return s.procField("io", "write_bytes") }

// client is one connection speaking the ldlserver line protocol.
type client struct {
	conn    net.Conn
	r       *bufio.Reader
	bytesIn int64 // response bytes read
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReader(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request line and reads the response: the status line,
// plus the counted data lines that QUERY and STATS answers carry.
func (c *client) do(line string) (status string, rows []string, err error) {
	c.conn.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		return "", nil, err
	}
	status, err = c.readLine()
	if err != nil {
		return "", nil, err
	}
	if !strings.HasPrefix(status, "OK ") {
		return status, nil, fmt.Errorf("%s: %s", strings.Fields(line)[0], status)
	}
	verb, _, _ := strings.Cut(line, " ")
	if verb != "QUERY" && verb != "STATS" {
		return status, nil, nil
	}
	n, err := strconv.Atoi(strings.TrimPrefix(status, "OK "))
	if err != nil {
		return status, nil, fmt.Errorf("bad status %q", status)
	}
	rows = make([]string, n)
	for i := range rows {
		if rows[i], err = c.readLine(); err != nil {
			return status, nil, err
		}
	}
	return status, rows, nil
}

func (c *client) readLine() (string, error) {
	s, err := c.r.ReadString('\n')
	c.bytesIn += int64(len(s))
	return strings.TrimSuffix(s, "\n"), err
}

// load sends a LOAD and returns the facts added and the epoch it
// published.
func (c *client) load(facts string) (added int, epoch uint64, err error) {
	status, _, err := c.do("LOAD " + facts)
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(status, "OK %d epoch=%d", &added, &epoch); err != nil {
		return 0, 0, fmt.Errorf("bad LOAD reply %q", status)
	}
	return added, epoch, nil
}

// stats returns a server's STATS as a map.
func (c *client) stats() (map[string]string, error) {
	_, rows, err := c.do("STATS")
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, r := range rows {
		k, v, _ := strings.Cut(r, "=")
		m[k] = v
	}
	return m, nil
}

// statInt reads one integer STATS key (0 when absent).
func statInt(m map[string]string, key string) int64 {
	v, _ := strconv.ParseInt(m[key], 10, 64)
	return v
}
