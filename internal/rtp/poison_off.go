//go:build !rtppoison

package rtp

// poisonReleased is set by the rtppoison build tag (see pool.go).
const poisonReleased = false
