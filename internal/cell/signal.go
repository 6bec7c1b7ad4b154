package cell

import (
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

// DefaultSignalConfig returns the calibrated urban model parameters.
func DefaultSignalConfig() SignalConfig { return DefaultSignalConfigFor(Urban) }

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

// SignalModel computes per-cell received power for a moving UE.
type SignalModel struct {
	cfg SignalConfig
	env Environment
	bss []BS

	shadow []float64 // per-cell OU shadowing state (dB)
	rng    *rand.Rand
	last   time.Duration
	init   bool
}

// NewSignalModel returns a model over the given deployment.
func NewSignalModel(env Environment, bss []BS, cfg SignalConfig, rng *rand.Rand) *SignalModel {
	m := &SignalModel{cfg: cfg, env: env, bss: bss, rng: rng, shadow: make([]float64, len(bss))}
	for i := range m.shadow {
		m.shadow[i] = rng.NormFloat64() * cfg.ShadowSigmaGroundDB
	}
	return m
}

// Cells returns the deployment.
func (m *SignalModel) Cells() []BS { return m.bss }

// CellID maps a deployment index — what Machine tracks internally and what
// RSRPAll's slice positions mean — to the base station's ID. The two
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
	airness := st.Alt / 120
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

// RSRPAll advances the fading state to now and returns the received power
// (dBm) from every cell at the given UE state. The returned slice is reused
// across calls.
func (m *SignalModel) RSRPAll(now time.Duration, st flight.State, out []float64) []float64 {
	m.advance(now, st)
	out = out[:0]
	for i, bs := range m.bss {
		out = append(out, m.rsrp(i, bs, st))
	}
	return out
}

// rsrp computes one cell's received power.
func (m *SignalModel) rsrp(i int, bs BS, st flight.State) float64 {
	dx, dy := st.X-bs.X, st.Y-bs.Y
	d2 := math.Hypot(dx, dy)
	if d2 < 10 {
		d2 = 10
	}
	dz := st.Alt - bs.Height
	d3 := math.Hypot(d2, dz)
	dKm := d3 / 1000

	// Line-of-sight probability rises with altitude; the urban ground is
	// mostly obstructed, the rural ground often open.
	pLoS := 0.15
	if m.env == Rural {
		pLoS = 0.5
	}
	airness := st.Alt / 120
	if airness > 1 {
		airness = 1
	}
	pLoS += (0.95 - pLoS) * airness

	logD := math.Log10(math.Max(dKm, 0.01))
	plLoS := 103.4 + 24.2*logD
	plNLoS := 131.1 + 42.8*logD
	pl := pLoS*plLoS + (1-pLoS)*plNLoS

	// Vertical antenna pattern: boresight is DownTiltDeg below the horizon.
	elev := math.Atan2(dz, d2) * 180 / math.Pi
	off := (elev + m.cfg.DownTiltDeg) / m.cfg.VerticalHPBWDeg
	att := 12 * off * off
	if att > m.cfg.SideLobeFloorDB {
		att = m.cfg.SideLobeFloorDB
	}

	return m.cfg.TxPowerDBm - pl - att + m.shadow[i]
}
