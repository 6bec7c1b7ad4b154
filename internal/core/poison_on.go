//go:build rtppoison

package core

// poisonSpent: a spent Result is poisoned and dropped, never reused (see
// putResult). Test builds only: every run allocates its Result.
const poisonSpent = true
