//go:build !rtppoison

package core

// poisonSpent is set by the rtppoison build tag (see putResult).
const poisonSpent = false
