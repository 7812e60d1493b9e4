package client

import (
	"fmt"

	"mobicache/internal/rng"
)

// Mobility configures the cell-residence model: a client stays connected
// to its cell's base station for a geometrically distributed number of
// ticks (mean MeanResidence), then either moves to a neighbouring cell or
// disconnects entirely for a geometrically distributed absence.
type Mobility struct {
	// MeanResidence is the mean ticks a client stays in one cell.
	MeanResidence float64
	// PDisconnect is the probability that a departure is a disconnection
	// rather than a handoff to another cell.
	PDisconnect float64
	// MeanAbsence is the mean ticks a disconnected client stays away.
	MeanAbsence float64
}

// DefaultMobility is a mild mobility profile: long residences, occasional
// disconnections.
var DefaultMobility = Mobility{MeanResidence: 200, PDisconnect: 0.2, MeanAbsence: 50}

// NeverDisconnect is a sentinel for Mobility.PDisconnect meaning "clients
// never disconnect" (an effective probability of zero). A literal zero
// cannot express this: WithDefaults treats an all-zero Mobility as "use
// DefaultMobility" and fills a zero PDisconnect alongside other zero
// fields, so an explicit never-disconnect profile must use the sentinel.
const NeverDisconnect = -1

// WithDefaults resolves the configuration conventions: an all-zero
// Mobility becomes DefaultMobility; otherwise zero MeanResidence and
// MeanAbsence take their defaults, and a NeverDisconnect PDisconnect is
// normalized to probability 0. The result is what NewPopulation should
// validate; WithDefaults itself never fails and is idempotent.
func (m Mobility) WithDefaults() Mobility {
	if m == (Mobility{}) {
		return DefaultMobility
	}
	if m.MeanResidence == 0 {
		m.MeanResidence = DefaultMobility.MeanResidence
	}
	if m.MeanAbsence == 0 {
		m.MeanAbsence = DefaultMobility.MeanAbsence
	}
	if m.PDisconnect == NeverDisconnect {
		m.PDisconnect = 0
	}
	return m
}

type clientState struct {
	cell      int
	connected bool
}

// Population tracks which clients are connected to which cell over time.
// It exists for the multi-cell simulation: the paper notes a client "may
// be connected to the base station in its cell for a short period of time,
// and then disconnect or move to a different cell, so the base station
// must serve client requests in a timely manner".
type Population struct {
	src      *rng.Source
	mobility Mobility
	cells    int
	clients  []clientState
	handoffs uint64
	drops    uint64
}

// NewPopulation creates n clients spread uniformly over the given number
// of cells, all initially connected.
func NewPopulation(n, cells int, mobility Mobility, seed uint64) (*Population, error) {
	if n <= 0 || cells <= 0 {
		return nil, fmt.Errorf("client: population %d / cells %d must be positive", n, cells)
	}
	if mobility.MeanResidence < 1 {
		return nil, fmt.Errorf("client: mean residence %v must be >= 1", mobility.MeanResidence)
	}
	if mobility.PDisconnect < 0 || mobility.PDisconnect > 1 {
		return nil, fmt.Errorf("client: disconnect probability %v out of [0,1]", mobility.PDisconnect)
	}
	if mobility.MeanAbsence < 1 {
		return nil, fmt.Errorf("client: mean absence %v must be >= 1", mobility.MeanAbsence)
	}
	p := &Population{
		src:      rng.New(seed),
		mobility: mobility,
		cells:    cells,
		clients:  make([]clientState, n),
	}
	for i := range p.clients {
		p.clients[i] = clientState{cell: i % cells, connected: true}
	}
	return p, nil
}

// Tick advances the mobility model one time unit. Each connected client
// departs its cell with probability 1/MeanResidence; each disconnected
// client reconnects (to a uniformly random cell) with probability
// 1/MeanAbsence.
func (p *Population) Tick() {
	pLeave := 1 / p.mobility.MeanResidence
	pReturn := 1 / p.mobility.MeanAbsence
	for i := range p.clients {
		c := &p.clients[i]
		if c.connected {
			if p.src.Bernoulli(pLeave) {
				if p.src.Bernoulli(p.mobility.PDisconnect) {
					c.connected = false
					p.drops++
				} else if p.cells > 1 {
					// Move to a different cell.
					next := p.src.Intn(p.cells - 1)
					if next >= c.cell {
						next++
					}
					c.cell = next
					p.handoffs++
				}
			}
		} else if p.src.Bernoulli(pReturn) {
			c.connected = true
			c.cell = p.src.Intn(p.cells)
		}
	}
}

// Connected reports whether client i is currently connected.
func (p *Population) Connected(i int) bool { return p.clients[i].connected }

// ForEachConnected calls fn(client, cell) for every connected client in
// ascending client order. It allocates nothing, so per-tick request
// generation can visit the population without building an intermediate
// slice; the fixed visit order is what keeps engines that derive
// randomness from the visited cells deterministic.
func (p *Population) ForEachConnected(fn func(i, cell int)) {
	for i := range p.clients {
		if p.clients[i].connected {
			fn(i, p.clients[i].cell)
		}
	}
}

// Cell returns the cell of client i (meaningful only while connected).
func (p *Population) Cell(i int) int { return p.clients[i].cell }

// InCell returns the connected clients in the given cell. The slice is
// fresh and owned by the caller.
func (p *Population) InCell(cell int) []int {
	var out []int
	for i := range p.clients {
		if p.clients[i].connected && p.clients[i].cell == cell {
			out = append(out, i)
		}
	}
	return out
}

// ConnectedCount returns the number of currently connected clients.
func (p *Population) ConnectedCount() int {
	n := 0
	for i := range p.clients {
		if p.clients[i].connected {
			n++
		}
	}
	return n
}

// Handoffs returns the number of cell-to-cell moves so far.
func (p *Population) Handoffs() uint64 { return p.handoffs }

// Drops returns the number of disconnections so far.
func (p *Population) Drops() uint64 { return p.drops }

// Len returns the population size.
func (p *Population) Len() int { return len(p.clients) }
