// A fixture for TestControlWritesBumpChanges, parsed and never built: each
// function here writes a control input, and only those that bump the
// change count may.
package sim

// Writes idle and forgets the count.
func (m *Machine) SetIdle(core int, idle bool) error {
	c := &m.cores[core]
	c.idle = idle
	return nil
}

// Writes the thermal cap and forgets the count.
func (m *Machine) SetThermalCap(f units.Hertz) {
	m.thermalCap = f
}

// Writes the request and the app in a closure the count is bumped beside.
func (m *Machine) Pin(in *workload.Instance, core int) error {
	set := func() { m.cores[core].app, m.cores[core].request = in, 0 }
	set()
	m.changes++
	return nil
}

// Writes offline through a local and bumps the count by assignment.
func (m *Machine) SetOffline(core int, off bool) error {
	c := &m.cores[core]
	c.offline = off
	m.changes += 1
	return nil
}
