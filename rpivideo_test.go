package rpivideo_test

import (
	"testing"
	"time"

	"rpivideo"
)

func TestPublicAPIQuickstart(t *testing.T) {
	r := rpivideo.Run(rpivideo.Config{
		Env:      rpivideo.Urban,
		Air:      true,
		CC:       rpivideo.GCC,
		Seed:     1,
		Duration: 30 * time.Second,
	})
	if r.GoodputMean() <= 0 {
		t.Error("no goodput")
	}
	if r.FramesPlayed == 0 {
		t.Error("no frames played")
	}
}

func TestPublicAPICampaign(t *testing.T) {
	rs, errs := rpivideo.RunCampaignWithOptions(rpivideo.Config{
		Env:      rpivideo.Rural,
		Op:       rpivideo.P2,
		Air:      true,
		CC:       rpivideo.Static,
		Seed:     2,
		Duration: 20 * time.Second,
	}, 2, rpivideo.CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := rpivideo.Summarize(rs)
	if m.Duration != 40*time.Second {
		t.Errorf("merged duration = %v", m.Duration)
	}
}

func TestPublicAPIPing(t *testing.T) {
	r := rpivideo.Run(rpivideo.Config{
		Env:      rpivideo.Urban,
		Air:      true,
		Workload: rpivideo.Ping,
		Seed:     3,
		Duration: 60 * time.Second,
	})
	if r.RTTms.N() == 0 {
		t.Error("no RTT samples from the ping workload")
	}
}
