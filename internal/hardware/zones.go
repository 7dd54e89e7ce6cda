package hardware

import (
	"fmt"
	"math"
)

// ZoneGeometry describes a zoned neutral-atom machine in the style of ZAP
// (arXiv:2411.14037) and the Bluvstein et al. logical-processor experiments:
// a storage zone holding idle qubits in an SLM grid, a Rydberg entangling
// zone with a fixed number of parallel gate sites, and a readout zone, with
// atoms shuttled between zones by movable tweezers. All distances are in
// meters; the site pitch inside the storage grid is Params.AtomDistance of
// the parameter set the machine runs with.
//
// The geometry is laid out vertically: storage row 0 is the edge adjacent to
// the entangling zone (ZoneGap away), and the readout zone sits ReadoutGap
// beyond the entangling zone. Gate sites are spread evenly across the
// storage width at twice the site pitch, so simultaneously shuttled pairs
// stay outside each other's Rydberg blockade.
type ZoneGeometry struct {
	// StorageRows and StorageCols size the storage-zone SLM grid.
	StorageRows int `json:"storageRows"`
	StorageCols int `json:"storageCols"`
	// EntangleSites is the number of gate sites in the entangling zone. Each
	// site executes one two-qubit gate per shuttle round, so it bounds the
	// round's 2Q parallelism the way AOD geometry bounds the flat router's.
	EntangleSites int `json:"entangleSites"`
	// ZoneGap is the edge-to-edge storage-to-entangling distance.
	ZoneGap float64 `json:"zoneGap"`
	// ReadoutGap is the entangling-to-readout distance; every qubit crosses
	// both gaps once in the final readout shuttle.
	ReadoutGap float64 `json:"readoutGap"`
	// ShuttleSpeed is the mean inter-zone transport speed in m/s.
	ShuttleSpeed float64 `json:"shuttleSpeed"`
}

// Default zone-geometry constants: a 10x10 storage grid with ten gate
// sites, a 60 um storage-entangling gap, a 100 um entangling-readout gap,
// and the 0.55 m/s transport speed of the Bluvstein et al. shuttling
// experiments.
const (
	defaultZoneSide     = 10
	defaultZoneGap      = 60e-6
	defaultReadoutGap   = 100e-6
	defaultShuttleSpeed = 0.55
)

// maxZoneDim bounds the per-axis zone sizes so a hostile serialized geometry
// cannot overflow capacity arithmetic or drive absurd allocations.
const maxZoneDim = 1 << 12

// maxArrayDim and maxAODs bound FPQA machines (Config.Validate) for the same
// reason: compile time and memory grow with the trap-site count, so an
// unbounded override could stall a worker for minutes or exhaust memory.
// The largest machine they allow has 17 arrays of 256x256 (1.11M sites).
const (
	maxArrayDim = 256
	maxAODs     = 16
)

// DefaultZones returns the default zoned machine: a 10x10 storage grid and
// ten entangling gate sites.
func DefaultZones() ZoneGeometry {
	return ZoneGeometry{
		StorageRows:   defaultZoneSide,
		StorageCols:   defaultZoneSide,
		EntangleSites: defaultZoneSide,
		ZoneGap:       defaultZoneGap,
		ReadoutGap:    defaultReadoutGap,
		ShuttleSpeed:  defaultShuttleSpeed,
	}
}

// ZonesFor returns the default zoned machine grown to a square storage grid
// just large enough for nQubits, with one gate site per storage column —
// the same auto-sizing rule DefaultFPQAConfig applies to the flat machine.
func ZonesFor(nQubits int) ZoneGeometry {
	z := DefaultZones()
	side := defaultZoneSide
	for side*side < nQubits {
		side++
	}
	z.StorageRows, z.StorageCols, z.EntangleSites = side, side, side
	return z
}

// StorageCapacity returns the number of storage-zone sites.
func (z ZoneGeometry) StorageCapacity() int { return z.StorageRows * z.StorageCols }

// Validate checks that the geometry is physically sensible.
func (z ZoneGeometry) Validate() error {
	if z.StorageRows <= 0 || z.StorageCols <= 0 {
		return fmt.Errorf("hardware: storage zone %dx%d invalid", z.StorageRows, z.StorageCols)
	}
	if z.StorageRows > maxZoneDim || z.StorageCols > maxZoneDim {
		return fmt.Errorf("hardware: storage zone %dx%d exceeds the %d per-axis limit",
			z.StorageRows, z.StorageCols, maxZoneDim)
	}
	if z.EntangleSites <= 0 || z.EntangleSites > maxZoneDim {
		return fmt.Errorf("hardware: entangling zone needs 1..%d gate sites, got %d",
			maxZoneDim, z.EntangleSites)
	}
	if !(z.ZoneGap > 0) || math.IsInf(z.ZoneGap, 0) {
		return fmt.Errorf("hardware: zone gap must be positive and finite, got %g", z.ZoneGap)
	}
	if z.ReadoutGap < 0 || math.IsInf(z.ReadoutGap, 0) || math.IsNaN(z.ReadoutGap) {
		return fmt.Errorf("hardware: readout gap must be non-negative and finite, got %g", z.ReadoutGap)
	}
	if !(z.ShuttleSpeed > 0) || math.IsInf(z.ShuttleSpeed, 0) {
		return fmt.Errorf("hardware: shuttle speed must be positive and finite, got %g", z.ShuttleSpeed)
	}
	return nil
}

// StorageSite returns the grid position of storage slot i in row-major,
// nearest-zone-first order: slot 0 is row 0 (adjacent to the entangling
// zone), column 0.
func (z ZoneGeometry) StorageSite(i int) Site {
	return Site{Array: 0, Row: i / z.StorageCols, Col: i % z.StorageCols}
}

// GateSiteX returns the horizontal coordinate of entangling-zone gate site s
// given pitch p.AtomDistance: sites sit at twice the storage pitch, centred
// on the storage width.
func (z ZoneGeometry) GateSiteX(s int, p Params) float64 {
	center := float64(z.StorageCols-1) * p.AtomDistance / 2
	return center + (float64(s)-float64(z.EntangleSites-1)/2)*2*p.AtomDistance
}

// ShuttleDistance returns the storage-to-gate-site transport distance for an
// atom at storage site st travelling to gate site s: the vertical drop to
// the entangling row plus the horizontal offset, combined Euclidean.
func (z ZoneGeometry) ShuttleDistance(st Site, s int, p Params) float64 {
	dy := z.ZoneGap + float64(st.Row)*p.AtomDistance
	dx := math.Abs(float64(st.Col)*p.AtomDistance - z.GateSiteX(s, p))
	return math.Hypot(dx, dy)
}

// ReadoutDistance returns the storage-to-readout transport distance for an
// atom at storage site st: across the entangling zone to the readout zone.
func (z ZoneGeometry) ReadoutDistance(st Site, p Params) float64 {
	return z.ZoneGap + z.ReadoutGap + float64(st.Row)*p.AtomDistance
}

// ShuttleTime returns the duration of a transport of distance d: the
// constant-speed travel time, floored at the flat machine's per-move time so
// short hops keep the Fig 12 trajectory envelope (moving faster than the
// TimePerMove profile would over-heat the atom in the Sec. IV model).
func (z ZoneGeometry) ShuttleTime(d float64, p Params) float64 {
	t := d / z.ShuttleSpeed
	if t < p.TimePerMove {
		t = p.TimePerMove
	}
	return t
}
