package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/core"
)

// SnapshotWriter streams one CSV row per control-interval snapshot:
// time, package power, limit, then four columns (MHz, IPS, W, parked) per
// application. Output is buffered — the daemon produces two snapshots'
// worth of text per second and an unbuffered writer would issue several
// syscalls per app per iteration — so callers must Flush before closing
// the underlying file.
type SnapshotWriter struct {
	w    io.Writer
	bw   *bufio.Writer
	apps []core.AppSpec
}

// NewSnapshotWriter wraps w in a buffer and writes the CSV header for the
// given application set.
func NewSnapshotWriter(w io.Writer, apps []core.AppSpec) *SnapshotWriter {
	sw := &SnapshotWriter{w: w, bw: bufio.NewWriter(w), apps: append([]core.AppSpec(nil), apps...)}
	fmt.Fprint(sw.bw, "time_s,pkg_w,limit_w")
	for _, a := range sw.apps {
		fmt.Fprintf(sw.bw, ",%s_c%d_mhz,%s_c%d_ips,%s_c%d_w,%s_c%d_parked",
			a.Name, a.Core, a.Name, a.Core, a.Name, a.Core, a.Name, a.Core)
	}
	fmt.Fprintln(sw.bw)
	return sw
}

// Observe appends one row. It matches the daemon's OnSnapshot signature.
func (sw *SnapshotWriter) Observe(s core.Snapshot) {
	fmt.Fprintf(sw.bw, "%.3f,%.3f,%.3f", s.Time.Seconds(), float64(s.PackagePower), float64(s.Limit))
	for _, a := range s.Apps {
		parked := 0
		if a.Parked {
			parked = 1
		}
		fmt.Fprintf(sw.bw, ",%.0f,%.4g,%.3f,%d", a.Freq.MHzF(), a.IPS, float64(a.Power), parked)
	}
	fmt.Fprintln(sw.bw)
}

// Close flushes the buffer and closes the underlying writer if it is an
// io.Closer. A flush failure takes precedence over a close failure: it
// means rows were lost, which matters more than a leaked descriptor.
func (sw *SnapshotWriter) Close() error {
	ferr := sw.bw.Flush()
	if c, ok := sw.w.(io.Closer); ok {
		if cerr := c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}
