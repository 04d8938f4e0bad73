// Package monitor implements the system-level monitoring layer that
// Mulini parameterizes per host (paper §II): samplers that read simulated
// host counters on a fixed interval and emit sysstat-style records. The
// collected text files are what the paper stores by the gigabyte
// (Table 3's "collected perf. data size"); the CPU-utilization series
// feed Figures 2 and 8.
package monitor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"elba/internal/metrics"
	"elba/internal/sim"
)

// Probe describes one monitored host: its identity, its memory profile,
// how its network and disk traffic derive from the operations it serves,
// and the counter source its rows read.
type Probe struct {
	// Host is the node hostname the monitor runs on.
	Host string
	// Role is the deployment role (APP1, MYSQL2, ...).
	Role string
	// TotalMemMB is the node's physical memory.
	TotalMemMB float64
	// BaseMemMB is the resident set of the installed software at idle.
	BaseMemMB float64
	// MemPerJobMB approximates per-in-flight-request memory.
	MemPerJobMB float64
	// BytesPerOp is the network traffic one served operation moves
	// through the host.
	BytesPerOp float64
	// DiskOpsPerOp is the disk operations one served operation issues
	// (0 = the host emits no disk-operation rows).
	DiskOpsPerOp float64
	// Counters supplies the host's counters. Nil for hosts that run no
	// modelled service (the client node): they report an idle CPU and
	// base memory only.
	Counters Counters
}

// Counters is a monitored host's counter source, implemented by each
// trial engine. Busy-time and operation readings are cumulative; Jobs is
// the current level.
type Counters interface {
	// CPU returns cumulative CPU busy-seconds and the core count dividing
	// a busy window (counts below 1 divide as 1).
	CPU() (busy float64, servers int)
	// Jobs returns the host's in-flight request level.
	Jobs() float64
	// Ops returns the host's cumulative served operations.
	Ops() float64
	// Resources reports whether the host has a contended disk and a
	// contended network link. The answer is fixed for the host's
	// lifetime; DiskBusy and NetBusy are read only for attached ones.
	Resources() (disk, net bool)
	// DiskBusy returns cumulative disk busy-seconds.
	DiskBusy() float64
	// NetBusy returns cumulative network-link busy-seconds.
	NetBusy() float64
}

// StationCounters is the counter source of a simulated station and the
// disk and network resources attached to it.
func StationCounters(st *sim.Station) Counters { return stationCounters{st} }

type stationCounters struct{ st *sim.Station }

func (c stationCounters) CPU() (float64, int)     { return c.st.BusyTime(), c.st.Servers() }
func (c stationCounters) Jobs() float64           { return float64(c.st.InFlight()) }
func (c stationCounters) Ops() float64            { return float64(c.st.Completed()) }
func (c stationCounters) Resources() (bool, bool) { return c.st.Disk() != nil, c.st.Net() != nil }
func (c stationCounters) DiskBusy() float64       { return c.st.Disk().BusyTime() }
func (c stationCounters) NetBusy() float64        { return c.st.Net().BusyTime() }

// Config configures a monitoring session.
type Config struct {
	// IntervalSec is the sampling interval from the TBL monitor clause.
	IntervalSec float64
	// Metrics enables metric families: cpu, memory, network, disk.
	Metrics []string
}

// Monitor samples a set of probes on a simulation kernel.
type Monitor struct {
	k       *sim.Kernel
	cfg     Config
	probes  []Probe
	running bool

	// state caches per-probe output targets and counter windows so a
	// sample tick does no map lookups, key concatenation, or Sprintf work.
	state []probeState
	buf   []byte // scratch line buffer reused across ticks

	files  map[string]*strings.Builder
	series map[string]*metrics.TimeSeries
}

// probeState is the resolved hot-path state for one probe: where its rows
// go, which time series receive its values, and the previous cumulative
// counter readings for windowed rates.
type probeState struct {
	file     *strings.Builder
	cpu      *metrics.TimeSeries
	mem      *metrics.TimeSeries
	net      *metrics.TimeSeries
	disk     *metrics.TimeSeries
	diskUtil *metrics.TimeSeries
	netUtil  *metrics.TimeSeries
	lastBusy float64
	lastNet  float64
	lastDisk float64
	// previous busy-time readings of the contended disk/net resources
	lastDiskBusy float64
	lastNetBusy  float64
}

// New creates a monitor for the probes. Sampling begins at Start.
func New(k *sim.Kernel, cfg Config, probes []Probe) (*Monitor, error) {
	if cfg.IntervalSec <= 0 {
		return nil, fmt.Errorf("monitor: sampling interval must be positive")
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("monitor: no probes configured")
	}
	m := &Monitor{
		k: k, cfg: cfg, probes: probes,
		files:  map[string]*strings.Builder{},
		series: map[string]*metrics.TimeSeries{},
	}
	for _, p := range probes {
		if m.files[p.Host] == nil {
			m.files[p.Host] = &strings.Builder{}
			fmt.Fprintf(m.files[p.Host], "# sysstat 5.0.5 host=%s role=%s interval=%gs\n",
				p.Host, p.Role, cfg.IntervalSec)
		}
	}
	m.state = make([]probeState, len(probes))
	for i, p := range probes {
		st := &m.state[i]
		st.file = m.files[p.Host]
		if m.has("cpu") {
			st.cpu = m.seriesFor(p.Host, "cpu")
		}
		if m.has("memory") {
			st.mem = m.seriesFor(p.Host, "memory")
		}
		if p.Counters == nil {
			continue
		}
		disk, net := p.Counters.Resources()
		if m.has("network") {
			st.net = m.seriesFor(p.Host, "network")
		}
		if m.has("disk") && p.DiskOpsPerOp > 0 {
			st.disk = m.seriesFor(p.Host, "disk")
		}
		if m.has("disk") && disk {
			st.diskUtil = m.seriesFor(p.Host, "disk-util")
		}
		if m.has("network") && net {
			st.netUtil = m.seriesFor(p.Host, "net-util")
		}
	}
	return m, nil
}

// seriesFor returns the time series for host/metric, creating it on first
// use. Probes sharing a host share the series, as record() always did.
func (m *Monitor) seriesFor(host, metric string) *metrics.TimeSeries {
	key := host + "/" + metric
	ts, ok := m.series[key]
	if !ok {
		ts = metrics.NewTimeSeries(key)
		m.series[key] = ts
	}
	return ts
}

func (m *Monitor) has(metric string) bool {
	for _, x := range m.cfg.Metrics {
		if x == metric {
			return true
		}
	}
	return false
}

// Start begins periodic sampling. Sampling continues until Stop.
func (m *Monitor) Start() {
	m.running = true
	// Prime counters so the first window starts at Start, not at t=0.
	for i := range m.probes {
		c, st := m.probes[i].Counters, &m.state[i]
		if c == nil {
			continue
		}
		st.lastBusy, _ = c.CPU()
		ops := c.Ops()
		st.lastNet = ops * m.probes[i].BytesPerOp
		st.lastDisk = ops * m.probes[i].DiskOpsPerOp
		disk, net := c.Resources()
		if disk {
			st.lastDiskBusy = c.DiskBusy()
		}
		if net {
			st.lastNetBusy = c.NetBusy()
		}
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

// Stop halts sampling after the current interval.
func (m *Monitor) Stop() { m.running = false }

func (m *Monitor) tick() {
	if !m.running {
		return
	}
	now := m.k.Now()
	for i := range m.probes {
		m.sample(&m.probes[i], &m.state[i], now)
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

// sample emits one sysstat row per enabled metric family. Rows are built
// in the monitor's scratch buffer and written once, so steady-state
// sampling allocates nothing beyond amortized buffer growth — collection
// volume is Table 3 scale, so this path runs millions of times per sweep.
func (m *Monitor) sample(p *Probe, st *probeState, now float64) {
	b := m.buf[:0]
	if st.cpu != nil {
		util := 0.0
		if p.Counters != nil {
			busy, servers := p.Counters.CPU()
			servers = max(servers, 1)
			delta := busy - st.lastBusy
			st.lastBusy = busy
			util = delta / (m.cfg.IntervalSec * float64(servers))
			if util > 1 {
				util = 1
			}
		}
		user := util * 100 * 0.92
		sys := util * 100 * 0.08
		idle := 100 - user - sys
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " cpu all "...)
		b = appendFixed(b, user, 6, 2)
		b = append(b, ' ')
		b = appendFixed(b, sys, 6, 2)
		b = append(b, ' ')
		b = appendFixed(b, idle, 6, 2)
		b = append(b, '\n')
		st.cpu.Append(now, util*100)
	}
	if st.mem != nil {
		used := p.BaseMemMB
		if p.Counters != nil {
			used += p.Counters.Jobs() * p.MemPerJobMB
		}
		if p.TotalMemMB > 0 && used > p.TotalMemMB {
			used = p.TotalMemMB
		}
		free := p.TotalMemMB - used
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " mem "...)
		b = appendFixed(b, used, 8, 1)
		b = append(b, ' ')
		b = appendFixed(b, free, 8, 1)
		b = append(b, '\n')
		st.mem.Append(now, used)
	}
	if st.net != nil {
		cum := p.Counters.Ops() * p.BytesPerOp
		rate := (cum - st.lastNet) / m.cfg.IntervalSec
		st.lastNet = cum
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " net eth0 "...)
		b = appendFixed(b, rate, 12, 1)
		b = append(b, '\n')
		st.net.Append(now, rate)
	}
	if st.disk != nil {
		cum := p.Counters.Ops() * p.DiskOpsPerOp
		rate := (cum - st.lastDisk) / m.cfg.IntervalSec
		st.lastDisk = cum
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " disk sda "...)
		b = appendFixed(b, rate, 10, 1)
		b = append(b, '\n')
		st.disk.Append(now, rate)
	}
	if st.diskUtil != nil {
		busy := p.Counters.DiskBusy()
		delta := busy - st.lastDiskBusy
		st.lastDiskBusy = busy
		util := delta / m.cfg.IntervalSec
		if util > 1 {
			util = 1
		}
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " disk sda %util "...)
		b = appendFixed(b, util*100, 6, 2)
		b = append(b, '\n')
		st.diskUtil.Append(now, util*100)
	}
	if st.netUtil != nil {
		busy := p.Counters.NetBusy()
		delta := busy - st.lastNetBusy
		st.lastNetBusy = busy
		util := delta / m.cfg.IntervalSec
		if util > 1 {
			util = 1
		}
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " net eth0 %util "...)
		b = appendFixed(b, util*100, 6, 2)
		b = append(b, '\n')
		st.netUtil.Append(now, util*100)
	}
	if len(b) > 0 {
		st.file.Write(b)
	}
	m.buf = b
}

// appendStamp renders a simulated time as HH:MM:SS, sar style, without the
// Sprintf round trip of the old stamp() helper.
func appendStamp(b []byte, t float64) []byte {
	s := int(t)
	h, mi, se := s/3600%24, s/60%60, s%60
	return append(b,
		byte('0'+h/10), byte('0'+h%10), ':',
		byte('0'+mi/10), byte('0'+mi%10), ':',
		byte('0'+se/10), byte('0'+se%10))
}

// appendFixed renders v like fmt's %{width}.{prec}f: fixed decimals,
// left-padded with spaces to the minimum width.
func appendFixed(b []byte, v float64, width, prec int) []byte {
	const spaces = "                " // longest pad is width 12
	start := len(b)
	b = strconv.AppendFloat(b, v, 'f', prec, 64)
	if pad := width - (len(b) - start); pad > 0 {
		b = append(b, spaces[:pad]...)
		copy(b[start+pad:], b[start:len(b)-pad])
		for i := 0; i < pad; i++ {
			b[start+i] = ' '
		}
	}
	return b
}

// Series returns the sampled time series for host/metric.
func (m *Monitor) Series(host, metric string) (*metrics.TimeSeries, bool) {
	ts, ok := m.series[host+"/"+metric]
	return ts, ok
}

// File returns the sysstat-format text collected for a host.
func (m *Monitor) File(host string) (string, bool) {
	f, ok := m.files[host]
	if !ok {
		return "", false
	}
	return f.String(), true
}

// Hosts lists monitored hosts, sorted.
func (m *Monitor) Hosts() []string {
	out := make([]string, 0, len(m.files))
	for h := range m.files {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// CollectedBytes reports the total size of collected monitor output, the
// quantity the paper's Table 3 reports per experiment set.
func (m *Monitor) CollectedBytes() int {
	n := 0
	for _, f := range m.files {
		n += f.Len()
	}
	return n
}
