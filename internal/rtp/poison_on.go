//go:build rtppoison

package rtp

// poisonReleased: released packets are poisoned and never reused (see
// pool.go). Test builds only: every packet ever made stays allocated.
const poisonReleased = true
