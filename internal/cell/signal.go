package cell

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rpivideo/internal/flight"
)

// SignalConfig holds the radio-model parameters. The shadowing parameters
// are the main calibration knobs for the handover statistics of §4.1 (see
// DESIGN.md).
type SignalConfig struct {
	// TxPowerDBm is the site transmit power.
	TxPowerDBm float64
	// DownTiltDeg is the antenna electrical down-tilt.
	DownTiltDeg float64
	// VerticalHPBWDeg is the vertical half-power beamwidth.
	VerticalHPBWDeg float64
	// SideLobeFloorDB caps the vertical pattern attenuation: above the main
	// lobe the UE is served by side lobes.
	SideLobeFloorDB float64
	// ShadowSigmaGroundDB is the shadow-fading standard deviation on the
	// ground.
	ShadowSigmaGroundDB float64
	// ShadowSigmaAirDB is the shadow/fluctuation standard deviation in the
	// air at the reference altitude (120 m); it interpolates linearly with
	// altitude. The air value is larger: line-of-sight to many cells plus
	// side-lobe service makes the serving-cell ranking volatile, which is
	// what drives the order-of-magnitude handover increase.
	ShadowSigmaAirDB float64
	// ShadowTauGround and ShadowTauAir are the shadowing correlation times.
	ShadowTauGround time.Duration
	ShadowTauAir    time.Duration
	// DecorrDistanceM is the shadowing decorrelation distance: movement
	// decorrelates fading in addition to time.
	DecorrDistanceM float64
}

// DefaultSignalConfigFor returns the calibrated model parameters for an
// environment. The aerial fluctuation is strongest in the urban area (many
// line-of-sight cells, reflections and interference around tall buildings),
// which is what makes urban air handovers the most frequent (Fig. 4a); the
// open rural sky is calmer.
func DefaultSignalConfigFor(env Environment) SignalConfig {
	cfg := SignalConfig{
		TxPowerDBm:          43,
		DownTiltDeg:         6,
		VerticalHPBWDeg:     10,
		SideLobeFloorDB:     20,
		ShadowSigmaGroundDB: 2.0,
		ShadowSigmaAirDB:    7.0,
		ShadowTauGround:     30 * time.Second,
		ShadowTauAir:        4 * time.Second,
		DecorrDistanceM:     150,
	}
	if env == Rural {
		cfg.ShadowSigmaAirDB = 4.5
		cfg.ShadowTauAir = 9 * time.Second
	}
	return cfg
}

// The path-loss model of rsrp: a line-of-sight and an obstructed log-distance
// law (dB at 1 km, dB per decade) mixed by a line-of-sight probability that
// rises linearly from its ground value to pLoSAir at airnessAltM. Named
// because the slope of Best's bound is derived from the same numbers.
const (
	plLoSAt1Km, plLoSPerDecade   = 103.4, 24.2
	plNLoSAt1Km, plNLoSPerDecade = 131.1, 42.8
	pLoSGroundUrban              = 0.15
	pLoSGroundRural              = 0.5
	pLoSAir                      = 0.95
	airnessAltM                  = 120
)

// SignalModel computes per-cell received power for a moving UE.
type SignalModel struct {
	cfg SignalConfig
	env Environment
	bss []BS

	shadow []float64 // per-cell OU shadowing state (dB)
	rng    *rand.Rand
	last   time.Duration
	init   bool

	// Best's bound (see there): per-cell cache, the two slope factors that
	// depend only on the configuration, and the count of exact evaluations.
	bounds     []cellBound
	geoSlope   float64 // distance and elevation terms: dB per metre, times d
	losPerAltM float64 // line-of-sight probability per metre of altitude
	evals      uint64
}

// NewSignalModel returns a model over the given deployment. It panics on a
// non-positive VerticalHPBWDeg or DecorrDistanceM: both are divisors, and a
// zero yields NaN or infinite powers that no comparison ever selects.
func NewSignalModel(env Environment, bss []BS, cfg SignalConfig, rng *rand.Rand) *SignalModel {
	m := new(SignalModel)
	m.Reset(env, bss, cfg, rng)
	return m
}

// Reset makes m the model NewSignalModel builds from the same arguments,
// drawing the same numbers from rng, and keeps the per-cell storage m grew
// for the next deployment that fits in it. The run that used m before must
// be finished.
func (m *SignalModel) Reset(env Environment, bss []BS, cfg SignalConfig, rng *rand.Rand) {
	if !(cfg.VerticalHPBWDeg > 0) || !(cfg.DecorrDistanceM > 0) {
		panic(fmt.Sprintf("cell: VerticalHPBWDeg (%v) and DecorrDistanceM (%v) must be positive", cfg.VerticalHPBWDeg, cfg.DecorrDistanceM))
	}
	shadow, bounds := m.shadow, m.bounds
	if cap(shadow) < len(bss) || cap(bounds) < len(bss) {
		shadow, bounds = make([]float64, len(bss)), make([]cellBound, len(bss))
	}
	// A bound another map's cells left would let Best skip a cell of this
	// one; a zero bound has no reach, so every cell is evaluated first.
	shadow, bounds = shadow[:len(bss)], bounds[:len(bss)]
	clear(bounds)
	*m = SignalModel{cfg: cfg, env: env, bss: bss, rng: rng, shadow: shadow, bounds: bounds}
	for i := range m.shadow {
		m.shadow[i] = rng.NormFloat64() * cfg.ShadowSigmaGroundDB
	}
	attPerDeg := 24 * math.Sqrt(math.Max(cfg.SideLobeFloorDB, 0)/12) / cfg.VerticalHPBWDeg
	m.geoSlope = plNLoSPerDecade/math.Ln10 + attPerDeg*180/math.Pi
	m.losPerAltM = (pLoSAir - m.pLoSGround()) / airnessAltM
}

// pLoSGround is the line-of-sight probability at ground level: the urban
// ground is mostly obstructed, the rural ground often open.
func (m *SignalModel) pLoSGround() float64 {
	if m.env == Rural {
		return pLoSGroundRural
	}
	return pLoSGroundUrban
}

// Cells returns the deployment.
func (m *SignalModel) Cells() []BS { return m.bss }

// CellID maps a deployment index — what Machine tracks internally and what
// Best returns — to the base station's ID. The two
// coincide for Deployment-generated maps, but injected shared maps may
// carry arbitrary IDs, so anything user-facing (handover and RLF events,
// traces) must go through this mapping rather than reporting raw indices.
func (m *SignalModel) CellID(i int) int {
	if i < 0 || i >= len(m.bss) {
		return -1
	}
	return m.bss[i].ID
}

// advance evolves the per-cell shadowing as an Ornstein–Uhlenbeck process
// whose variance and correlation time depend on altitude.
func (m *SignalModel) advance(now time.Duration, st flight.State) {
	if !m.init {
		m.init = true
		m.last = now
		return
	}
	dt := (now - m.last).Seconds()
	if dt <= 0 {
		return
	}
	m.last = now
	airness := st.Alt / airnessAltM
	if airness > 1 {
		airness = 1
	}
	sigma := m.cfg.ShadowSigmaGroundDB + (m.cfg.ShadowSigmaAirDB-m.cfg.ShadowSigmaGroundDB)*airness
	tau := m.cfg.ShadowTauGround.Seconds() + (m.cfg.ShadowTauAir.Seconds()-m.cfg.ShadowTauGround.Seconds())*airness
	if tau < 0.5 {
		tau = 0.5
	}
	// Movement decorrelates shadowing too: scale the effective rate with
	// speed over the decorrelation distance.
	rate := dt/tau + dt*st.Speed/m.cfg.DecorrDistanceM
	if rate > 1 {
		rate = 1
	}
	kick := sigma * math.Sqrt(2*rate) // the same product, in the same order, for every cell
	for i := range m.shadow {
		m.shadow[i] += -m.shadow[i]*rate + kick*m.rng.NormFloat64()
	}
}

// cellBound is what Best remembers of one cell's last exact evaluation.
type cellBound struct {
	x, y, alt float64 // UE position of the evaluation
	det       float64 // the deterministic power there (dBm)
	slope     float64 // how fast det can rise, dB per metre of L1 displacement
	reach     float64 // displacement below which slope holds (m)
}

// boundSlack covers the floating-point error of det and of the bound's own
// arithmetic (≈ 1e-12 dB at these magnitudes) many times over.
const boundSlack = 1e-6

// Best advances the fading state to now and returns the index and received
// power (dBm) of the strongest cell at the given UE state — the lowest index
// among equals, as an ascending scan with > finds it — and the power of the
// serving cell (of cell 0 while serving is -1). hint is the caller's guess
// at the winner, typically the last one. It returns -1 on an empty map. The
// state must be finite and high enough for the line-of-sight mix to be a
// probability (anywhere above ground is).
//
// Only cells that can win are evaluated. A cell's power is det + shadow[i];
// shadow is current for every cell after advance, and det, a function of
// the UE position alone, was cached with a Lipschitz slope where the cell
// was last evaluated (see eval). While the UE stays within reach of that
// position, det + slope·displacement + shadow[i] bounds the cell's power
// from above, and a cell whose bound is below the running best can neither
// win nor tie. The serving cell and the hint go first so that the running
// best starts high.
func (m *SignalModel) Best(now time.Duration, st flight.State, serving, hint int) (best int, bestV, servV float64) {
	m.advance(now, st)
	n := len(m.bss)
	if n == 0 {
		return -1, math.Inf(-1), math.Inf(-1)
	}
	if serving < 0 || serving >= n {
		serving = 0
	}
	servV = m.eval(serving, st)
	best, bestV = serving, servV
	if hint >= 0 && hint < n && hint != serving {
		if v := m.eval(hint, st); v > bestV || v == bestV && hint < best {
			best, bestV = hint, v
		}
	}
	for i := range m.bounds {
		if i == serving || i == hint {
			continue
		}
		c := &m.bounds[i]
		disp := math.Abs(st.X-c.x) + math.Abs(st.Y-c.y) + math.Abs(st.Alt-c.alt)
		if disp < c.reach && c.det+c.slope*disp+m.shadow[i]+boundSlack < bestV {
			continue
		}
		if v := m.eval(i, st); v > bestV || v == bestV && i < best {
			best, bestV = i, v
		}
	}
	return best, bestV, servV
}

// eval computes one cell's received power and caches its deterministic part
// with the slope of Best's bound. With d the 3-D distance to the site, det
// changes through three quantities, each 1-Lipschitz or better in the UE's
// Euclidean — hence also L1 — displacement: the distance itself, at most
// plNLoSPerDecade/(ln10·d) dB/m whatever the line-of-sight mix; the
// elevation angle, at most 1/d rad/m, times the steepest the antenna
// pattern gets before the side-lobe floor caps it; and the line-of-sight
// probability, losPerAltM per metre of altitude, times the gap between the
// two path-loss laws at the cached distance. The first two are taken at d/2,
// the closest the UE can get within a reach of d/2.
func (m *SignalModel) eval(i int, st flight.State) float64 {
	m.evals++
	det, d3, logD := m.det(m.bss[i], st)
	gap := math.Abs((plNLoSAt1Km - plLoSAt1Km) + (plNLoSPerDecade-plLoSPerDecade)*logD)
	reach := d3 / 2
	m.bounds[i] = cellBound{x: st.X, y: st.Y, alt: st.Alt, det: det, slope: m.geoSlope/reach + gap*m.losPerAltM, reach: reach}
	return det + m.shadow[i]
}

// det computes the deterministic part of a site's received power — transmit
// power less path loss and antenna attenuation — and, for eval, the 3-D
// distance (m) and the path-loss laws' log10 distance (km).
func (m *SignalModel) det(bs BS, st flight.State) (det, d3, logD float64) {
	dx, dy := st.X-bs.X, st.Y-bs.Y
	d2 := math.Hypot(dx, dy)
	if d2 < 10 {
		d2 = 10
	}
	dz := st.Alt - bs.Height
	d3 = math.Hypot(d2, dz)
	dKm := d3 / 1000

	// Line-of-sight probability rises with altitude.
	pLoS := m.pLoSGround()
	airness := st.Alt / airnessAltM
	if airness > 1 {
		airness = 1
	}
	pLoS += (pLoSAir - pLoS) * airness

	logD = math.Log10(math.Max(dKm, 0.01))
	plLoS := plLoSAt1Km + plLoSPerDecade*logD
	plNLoS := plNLoSAt1Km + plNLoSPerDecade*logD
	pl := pLoS*plLoS + (1-pLoS)*plNLoS

	// Vertical antenna pattern: boresight is DownTiltDeg below the horizon.
	elev := math.Atan2(dz, d2) * 180 / math.Pi
	off := (elev + m.cfg.DownTiltDeg) / m.cfg.VerticalHPBWDeg
	att := 12 * off * off
	if att > m.cfg.SideLobeFloorDB {
		att = m.cfg.SideLobeFloorDB
	}

	return m.cfg.TxPowerDBm - pl - att, d3, logD
}
