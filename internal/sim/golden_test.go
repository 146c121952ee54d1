package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
	"flowsched/internal/sched"
)

// goldenControls is the config set of one control stack (nil = layer off).
type goldenControls struct {
	ocfg *overload.Config
	ecfg *elastic.Config
	hcfg *hedge.Config
	rcfg *resilience.Config
}

// goldenInstances: an overloaded Poisson stream on 15 servers, and a
// tie-dense instance on 6 — integer releases shared by four tasks each and
// processing times of 1, 2 or 1e-300 (an attempt that starts after t = 0
// ends at its start instant), so completions, arrivals and timers keep
// landing on the same instant.
var goldenInstances = []struct {
	name string
	make func() *core.Instance
}{
	{"overloaded", func() *core.Instance {
		return overloadedInstance(15, 700, 1.05, rand.New(rand.NewSource(11)))
	}},
	{"ties", func() *core.Instance { return tieDenseInstance(6, 400, rand.New(rand.NewSource(12))) }},
}

// tieDenseInstance builds n tasks on m servers with integer releases shared
// by four tasks each, processing times of 1, 2 or 1e-300, and (for four
// tasks in five) a two-server ring-interval set, so ends keep landing
// exactly on later releases.
func tieDenseInstance(m, n int, rng *rand.Rand) *core.Instance {
	procs := []core.Time{1, 2, 1e-300}
	tasks := make([]core.Task, n)
	for i := range tasks {
		var set core.ProcSet
		if i%5 > 0 {
			set = core.MustRingInterval(rng.Intn(m), min(2, m), m)
		}
		tasks[i] = core.Task{Release: core.Time(i / 4), Proc: procs[rng.Intn(len(procs))], Set: set, Key: i % m}
	}
	return core.NewInstance(m, tasks)
}

type goldenRouter struct {
	name string
	make func() Router
}

var goldenRouters = []goldenRouter{
	{"EFT", func() Router { return EFTRouter{} }},
	{"RR", func() Router { return &RoundRobinRouter{} }},
	{"JSQ", func() Router { return JSQRouter{} }},
	{"Po2", func() Router { return PowerOfTwoRouter{Rng: rand.New(rand.NewSource(5))} }},
}

// horizonOf is the last release of inst: fault and scale instants are
// placed as fractions of it.
func horizonOf(inst *core.Instance) float64 { return float64(inst.Tasks[inst.N()-1].Release) }

var goldenPlans = []struct {
	name string
	make func(inst *core.Instance) *faults.Plan
}{
	{"nofault", func(inst *core.Instance) *faults.Plan { return faults.Empty(inst.M) }},
	{"crash", func(inst *core.Instance) *faults.Plan {
		// One zone (three neighbouring servers) crashes mid-run.
		h := horizonOf(inst)
		p := faults.Empty(inst.M)
		for j := inst.M / 3; j < inst.M/3+3; j++ {
			p.Down(j, core.Time(0.4*h), core.Time(0.4*h+8))
		}
		return p
	}},
	{"gray", func(inst *core.Instance) *faults.Plan {
		// Every third server runs 4× slow for most of the run.
		p := faults.Empty(inst.M)
		for j := 0; j < inst.M; j += 3 {
			p.Slow(j, 5, 1e9, 4)
		}
		return p
	}},
}

func goldenShed() *overload.Config {
	return &overload.Config{
		Admission: overload.QueueBound{MaxQueue: 6},
		Shedder:   &overload.Shedder{Policy: overload.DropOldest, Watermark: 4},
	}
}

func goldenElastic(inst *core.Instance) *elastic.Config {
	h := horizonOf(inst)
	return &elastic.Config{Min: 3, WarmUp: 1, Script: []elastic.Event{
		{At: core.Time(0.3 * h), Delta: -2},
		{At: core.Time(0.6 * h), Delta: 2},
	}}
}

func goldenResilience() *resilience.Config {
	return &resilience.Config{
		Jitter: resilience.JitterFull, Seed: 3, RetryBudget: 0.2,
		Breaker: &resilience.BreakerConfig{Window: 10, FailureThreshold: 0.5, Cooldown: 6, SlowFactor: 2},
	}
}

var goldenControlSets = []struct {
	name string
	make func(inst *core.Instance) goldenControls
}{
	{"off", func(*core.Instance) goldenControls { return goldenControls{} }},
	{"shed", func(*core.Instance) goldenControls { return goldenControls{ocfg: goldenShed()} }},
	{"elastic", func(inst *core.Instance) goldenControls { return goldenControls{ecfg: goldenElastic(inst)} }},
	{"hedge-delay", func(*core.Instance) goldenControls {
		return goldenControls{hcfg: &hedge.Config{Delay: 2, CancelRunning: true}}
	}},
	{"hedge-quantile", func(*core.Instance) goldenControls {
		return goldenControls{hcfg: &hedge.Config{Quantile: 0.9, MinSamples: 10, Delay: 3}}
	}},
	{"hedge-tied", func(*core.Instance) goldenControls { return goldenControls{hcfg: &hedge.Config{Tied: true}} }},
	{"resilience", func(*core.Instance) goldenControls { return goldenControls{rcfg: goldenResilience()} }},
	{"full", func(inst *core.Instance) goldenControls {
		return goldenControls{
			ocfg: goldenShed(),
			ecfg: goldenElastic(inst),
			hcfg: &hedge.Config{Delay: 2, CancelRunning: true},
			rcfg: goldenResilience(),
		}
	}},
}

// goldenDigests are the SHA-256 digests (first 16 bytes, hex) of every
// matrix cell's outputs, captured from the lazy-deletion completion heap
// engine. Any change to a schedule, flow, disposition or counter of any
// cell changes its digest.
var goldenDigests = map[string]string{
	"overloaded/EFT/nofault/off":            "0558b2ac298a04eb96778f9a1381b847",
	"overloaded/EFT/nofault/shed":           "60424f275b1979857a55c49a70ffa402",
	"overloaded/EFT/nofault/elastic":        "03bd6b130714873fd60ad2b77a07620b",
	"overloaded/EFT/nofault/hedge-delay":    "2cdbab9a6e9c697eadac9ce4210a3b5d",
	"overloaded/EFT/nofault/hedge-quantile": "4fe50bd792ef45c88fdd6aec932799d5",
	"overloaded/EFT/nofault/hedge-tied":     "7ab5f41522473386139e8e1cdbf2a012",
	"overloaded/EFT/nofault/resilience":     "7698519c46d63781dfeac20b09909907",
	"overloaded/EFT/nofault/full":           "775d0bd2d8d09cc0ac0b6ea94f79539f",
	"overloaded/EFT/crash/off":              "d1ed66046a7c9c31c4679a7546a9da40",
	"overloaded/EFT/crash/shed":             "0cb80115c5fcad2da751b24e43c46af4",
	"overloaded/EFT/crash/elastic":          "87a735f2c7d762a62a305f861b641c9e",
	"overloaded/EFT/crash/hedge-delay":      "8c6ab57164716c0d9009325f34fa91c2",
	"overloaded/EFT/crash/hedge-quantile":   "73534e02990a9d656705270b4e7d33ca",
	"overloaded/EFT/crash/hedge-tied":       "f229f2f2c550fa63c2767c2ea72e58d7",
	"overloaded/EFT/crash/resilience":       "0db34e7113cff23d36bc504c480ffded",
	"overloaded/EFT/crash/full":             "fb8594cb8c73eb4f8ad8c83152266a25",
	"overloaded/EFT/gray/off":               "a8225f52b401dfa01a117bbeb61bc41e",
	"overloaded/EFT/gray/shed":              "f155ddef222b1a77348cb16dae66eaaf",
	"overloaded/EFT/gray/elastic":           "460c056d942dae3405db82e75fc580f6",
	"overloaded/EFT/gray/hedge-delay":       "17259f7612ce17642bfc8222441c0c84",
	"overloaded/EFT/gray/hedge-quantile":    "ee7cc6717399f7d070ebfa21eb0c29af",
	"overloaded/EFT/gray/hedge-tied":        "a0b32ffdaa2cbd38dbe6d89cc73074a0",
	"overloaded/EFT/gray/resilience":        "9223b96241bb42d10c5a424be94f37dd",
	"overloaded/EFT/gray/full":              "ef3460cc906515fe4b92d0d2991ef330",
	"overloaded/RR/nofault/off":             "753f86a20327f07ff295ddc69eb06afe",
	"overloaded/RR/nofault/shed":            "0cbbb4e0d65ccd33ee673205ae3ef972",
	"overloaded/RR/nofault/elastic":         "e4cea4d6529986ca0bc1f6eaac008992",
	"overloaded/RR/nofault/hedge-delay":     "9f5a593c182169b76eb86fd5e003c029",
	"overloaded/RR/nofault/hedge-quantile":  "f026f5c011e66602e0763435f57bc126",
	"overloaded/RR/nofault/hedge-tied":      "4aef665bc4a4dbd0c15eea99c52aef2d",
	"overloaded/RR/nofault/resilience":      "fc3c8ae5ec0821a2e95d33ff5ed28c32",
	"overloaded/RR/nofault/full":            "170e8b25e17d3365d9c27e6f16da68f8",
	"overloaded/RR/crash/off":               "893920cc4bdf9b9b17d5d9b284cc422e",
	"overloaded/RR/crash/shed":              "254a321f26fa977758c7312c29f55743",
	"overloaded/RR/crash/elastic":           "10907425d50a3f9e665e09db09744bbd",
	"overloaded/RR/crash/hedge-delay":       "a5d5d0527bfed4acd56d8995ec27d1ca",
	"overloaded/RR/crash/hedge-quantile":    "a519bdaeffa987700e6a9214c6b28f88",
	"overloaded/RR/crash/hedge-tied":        "914d00734560739988f7c970e32106e3",
	"overloaded/RR/crash/resilience":        "a515e7659dcd7212be03e268f219722a",
	"overloaded/RR/crash/full":              "c64db7acdb04c243fbf0bf1f885f0e4d",
	"overloaded/RR/gray/off":                "f7ebe3058b0c293bcc542212464ad154",
	"overloaded/RR/gray/shed":               "249112f3533209a4d2b9eb82068ac678",
	"overloaded/RR/gray/elastic":            "fcb27d0a69c96ac9b13252c9ae563d1a",
	"overloaded/RR/gray/hedge-delay":        "248f1d9d1731128032ef577451c1f9bc",
	"overloaded/RR/gray/hedge-quantile":     "f3ba1c71d9018de3cadd33c89201fcd4",
	"overloaded/RR/gray/hedge-tied":         "a247906251a56b832e5edab95c1ba906",
	"overloaded/RR/gray/resilience":         "1a55d6d7e4782e7703096dac96bea3fc",
	"overloaded/RR/gray/full":               "7bb64bf547aaf9812eecaabe54aa63e8",
	"overloaded/JSQ/nofault/off":            "b663debe08105e8b4ac05995d00b0fca",
	"overloaded/JSQ/nofault/shed":           "87b536dfe8ae563c2147b1f4c3a03853",
	"overloaded/JSQ/nofault/elastic":        "3141ae2507fb3b2b5b7ccf3f84d9f0ac",
	"overloaded/JSQ/nofault/hedge-delay":    "5d08a29fdc152d3b70cfc82f7bba4863",
	"overloaded/JSQ/nofault/hedge-quantile": "c8caa1a85c3a08d0b755b2cae1d2ef89",
	"overloaded/JSQ/nofault/hedge-tied":     "1c90907f50de9a5f83567d15c8eb92ab",
	"overloaded/JSQ/nofault/resilience":     "9a3bae7637db028fa804612d010a7633",
	"overloaded/JSQ/nofault/full":           "717921864cd1d52e66b3c6b43e82b2cc",
	"overloaded/JSQ/crash/off":              "64ca5ca2060c82003e28e75b0f7ab782",
	"overloaded/JSQ/crash/shed":             "3b36ecb005ee253318b4cc6a4817f908",
	"overloaded/JSQ/crash/elastic":          "c431467ae2991c31978d65b8b2717c18",
	"overloaded/JSQ/crash/hedge-delay":      "6346b762adcc09771ceddee63a6093ab",
	"overloaded/JSQ/crash/hedge-quantile":   "f5268487dcb2fb26b1456e1ffb9e69b2",
	"overloaded/JSQ/crash/hedge-tied":       "f6f6a3f0fb61776d0796bf44ec77a28b",
	"overloaded/JSQ/crash/resilience":       "e94823c4c1a62f391aba2a69bed79c4d",
	"overloaded/JSQ/crash/full":             "6cf143cb1c14be3cc6b0b44b7f0938f1",
	"overloaded/JSQ/gray/off":               "5e684204adadac85c37a3109a12a17db",
	"overloaded/JSQ/gray/shed":              "d0538e51ddd27416f2371f5b176dd538",
	"overloaded/JSQ/gray/elastic":           "6920613cdbe0f569aba64f1513e5c22e",
	"overloaded/JSQ/gray/hedge-delay":       "aae82fe1d270d890e7f6c199d30f5aaf",
	"overloaded/JSQ/gray/hedge-quantile":    "8f46916b02a83b1f160bbf7634ac8002",
	"overloaded/JSQ/gray/hedge-tied":        "8ed9d9a1c7ade8f0f71bbf0c640c8d2b",
	"overloaded/JSQ/gray/resilience":        "1b68d41db1654ab51cc83c15c58a1057",
	"overloaded/JSQ/gray/full":              "9c17a2f61dd9cc8a0dfa3e0303ca12ec",
	"overloaded/Po2/nofault/off":            "7be065d229da97250ac3d5f8ae62268c",
	"overloaded/Po2/nofault/shed":           "65315511a1ad8e8317ada5e1064e91bc",
	"overloaded/Po2/nofault/elastic":        "d58f2261472126c3f99dce5f68b754f6",
	"overloaded/Po2/nofault/hedge-delay":    "a897d4064b600a269f7662e52881af8c",
	"overloaded/Po2/nofault/hedge-quantile": "8d247a6fc4c95dd6c6b6b30d78d842a6",
	"overloaded/Po2/nofault/hedge-tied":     "06038e1e89644ea330462a4b3756827e",
	"overloaded/Po2/nofault/resilience":     "5a73888a7637c4d17a4a4f71e35486a1",
	"overloaded/Po2/nofault/full":           "d566020d61e7539cf3e633a2e604e02d",
	"overloaded/Po2/crash/off":              "c82f312be505951bd37b205eabfbe7fc",
	"overloaded/Po2/crash/shed":             "00341b8dd1e35b83e963844ad94cb53b",
	"overloaded/Po2/crash/elastic":          "b79840f700b78dfb1d928dc79a016bab",
	"overloaded/Po2/crash/hedge-delay":      "da1732fa0d29c2183103febfb33f0ce7",
	"overloaded/Po2/crash/hedge-quantile":   "6000df931de73ae5b5e1fcaf5c0369f3",
	"overloaded/Po2/crash/hedge-tied":       "57eb0e3d0ad1ffab015874fcfade55b1",
	"overloaded/Po2/crash/resilience":       "e057def06ba78a5cee4d1906f158135f",
	"overloaded/Po2/crash/full":             "a1c686b49c19de3d93093f0aba701c92",
	"overloaded/Po2/gray/off":               "7fe0500616024b0f00a71b74935f419f",
	"overloaded/Po2/gray/shed":              "9e341995ede0f48d3bb142ebb1cf4bfa",
	"overloaded/Po2/gray/elastic":           "6e2b682c0a743c6bfb12458a3f979888",
	"overloaded/Po2/gray/hedge-delay":       "2f0cdbda7e633ea653c448e65697f8ce",
	"overloaded/Po2/gray/hedge-quantile":    "c2cdc000cedc6d6ccdc6d8f7f226a1e2",
	"overloaded/Po2/gray/hedge-tied":        "018815df8ff6b55f6b2457699686ec3e",
	"overloaded/Po2/gray/resilience":        "ef933fc6024dbe71f292521f5d303e15",
	"overloaded/Po2/gray/full":              "5a054963ac19117c0e075230962ce151",
	"ties/EFT/nofault/off":                  "c4b1d6c1e12455a7a00e9c03f3a714d2",
	"ties/EFT/nofault/shed":                 "6fb3fc2e728ab5c44d817c1f4928d933",
	"ties/EFT/nofault/elastic":              "cce73d44fdeebb71199c742d8c3828ed",
	"ties/EFT/nofault/hedge-delay":          "9713567947b798f27c46352dfb6509e8",
	"ties/EFT/nofault/hedge-quantile":       "9b632671cf1e5a64a949518dfd5b208a",
	"ties/EFT/nofault/hedge-tied":           "37691bbd1c580fcdbd254abeaec44b4f",
	"ties/EFT/nofault/resilience":           "9e2bc2c0c9ca5fb7738c465f9fe4b236",
	"ties/EFT/nofault/full":                 "a3425c6e8ce5cef4352221a0b1fa2d2b",
	"ties/EFT/crash/off":                    "dc9d110e22bffe24dfd28212c6130de5",
	"ties/EFT/crash/shed":                   "466a8a91355513d521fd1557ddf2bb3f",
	"ties/EFT/crash/elastic":                "a3a613b7e743c484d7e86c9e0569744b",
	"ties/EFT/crash/hedge-delay":            "a478ef46b2100a44375b0fe1ae65313b",
	"ties/EFT/crash/hedge-quantile":         "149907ea6edc5d4028b95b3b314160bf",
	"ties/EFT/crash/hedge-tied":             "6b1bdb18ab37f5c1a3629ecb44b67aef",
	"ties/EFT/crash/resilience":             "2f7d96f5ca3e571ac1d019d5840eb4a9",
	"ties/EFT/crash/full":                   "e50c7ad948e261b171c7a343bf6b4089",
	"ties/EFT/gray/off":                     "610d31f117e70e719625c163a365e38c",
	"ties/EFT/gray/shed":                    "3bdb0d0a1588aa1a4daaadb58ad06d14",
	"ties/EFT/gray/elastic":                 "ea64e1e902f7546e714cd83457e9cac2",
	"ties/EFT/gray/hedge-delay":             "0e727b3a834b6bbf08b242b284e21e4d",
	"ties/EFT/gray/hedge-quantile":          "e8be4266dd84a3c4cc1cf88812b8e4a2",
	"ties/EFT/gray/hedge-tied":              "712b91e1ed8090ee829cec11ca758c37",
	"ties/EFT/gray/resilience":              "9c69cc17e835eeb901f7c429218716a5",
	"ties/EFT/gray/full":                    "459f5b4209e18b5ba96b96c2864e0f4b",
	"ties/RR/nofault/off":                   "934a9d8ed3e3c0c4a72674594f5a0eb7",
	"ties/RR/nofault/shed":                  "ac6b6dc9de373a8df89fa2aea3ecf515",
	"ties/RR/nofault/elastic":               "bec2b2f64fa4d81460b510753323a9f6",
	"ties/RR/nofault/hedge-delay":           "ea3929fd5e03d3f3ef88c976b92c8bda",
	"ties/RR/nofault/hedge-quantile":        "b0dc44c88668ac73fcdbc7a62e67b92d",
	"ties/RR/nofault/hedge-tied":            "88adb1afb999630ca0193b0ed429ff77",
	"ties/RR/nofault/resilience":            "7a1afbb15d8f5c4201fc1a5d7d30a35b",
	"ties/RR/nofault/full":                  "492f89a529b3967da3d6ae6cdbb6142c",
	"ties/RR/crash/off":                     "813cb0b8b0205ac873fe63c6272464fd",
	"ties/RR/crash/shed":                    "a991325b289b81d76a2ba4e3d3ffb7d2",
	"ties/RR/crash/elastic":                 "5b00630795a91e6a5120e1a63e1cae7d",
	"ties/RR/crash/hedge-delay":             "ae3c12070c98f448d17e49df522f9bbb",
	"ties/RR/crash/hedge-quantile":          "1ddc316de5ee35f63461678161976c44",
	"ties/RR/crash/hedge-tied":              "3c40c4150831faa6ca0c13156f92907b",
	"ties/RR/crash/resilience":              "7a5289b2c96a339595a57664e4f0b36e",
	"ties/RR/crash/full":                    "7de3060b1291622a356d3188e29ee0c2",
	"ties/RR/gray/off":                      "8bd5bc989cb5ca4034634af982c5cbec",
	"ties/RR/gray/shed":                     "26a9e3eb38ef802cff53df5783cb49c2",
	"ties/RR/gray/elastic":                  "9f4c953385a4f9aa8eebbea15e0d694d",
	"ties/RR/gray/hedge-delay":              "f8c8875d47aeca7389a7f89c26b1b732",
	"ties/RR/gray/hedge-quantile":           "20eff818d20868da7ce5742c2b7a3282",
	"ties/RR/gray/hedge-tied":               "52b2a5a6fa0f24546cbe343645042b57",
	"ties/RR/gray/resilience":               "8eff1e561c526670e5855482339875f4",
	"ties/RR/gray/full":                     "b7475554a99552d3558be8c1d769c4dc",
	"ties/JSQ/nofault/off":                  "25bf1b5a27b93c99ea54c59a3645097a",
	"ties/JSQ/nofault/shed":                 "4d5a8d8216788f427c04568075e71b72",
	"ties/JSQ/nofault/elastic":              "f3dd2e09d7ef1b6dd770db2a56796c2f",
	"ties/JSQ/nofault/hedge-delay":          "ae037c2b8a4a824d4fa469be1be53d00",
	"ties/JSQ/nofault/hedge-quantile":       "351c7768e738c865ca74c3f466be4435",
	"ties/JSQ/nofault/hedge-tied":           "2bc16b46dedcd840dc4434a39de49156",
	"ties/JSQ/nofault/resilience":           "f5c9dc3a58456edc4b5e50ba587d784f",
	"ties/JSQ/nofault/full":                 "022c0e782d08870813155af2ca88f68e",
	"ties/JSQ/crash/off":                    "6694ee62f12e806087f393608102275b",
	"ties/JSQ/crash/shed":                   "4e4508ef9a3f1beec5fc1fef03017e28",
	"ties/JSQ/crash/elastic":                "854a7a7e4990891554f52d011e0464e2",
	"ties/JSQ/crash/hedge-delay":            "e3a8870f2bf6a1086aad2a2c2c3cb478",
	"ties/JSQ/crash/hedge-quantile":         "0a8a7b3030e1a20c6eeb127846d6a447",
	"ties/JSQ/crash/hedge-tied":             "db415b5d6b14b8c4e0919a4ee67fe830",
	"ties/JSQ/crash/resilience":             "30391c7b32a03e7c61a759ea396f1e7e",
	"ties/JSQ/crash/full":                   "1fe1b48a0c11e1c0f29ef0c134fc6ccb",
	"ties/JSQ/gray/off":                     "30a5217ec40d90d2987e974aff3e04a7",
	"ties/JSQ/gray/shed":                    "8069adee9807de07ff73bdb9bffdfd46",
	"ties/JSQ/gray/elastic":                 "4d7d4fe2f6c26cbf81e8391d1dcdb7d7",
	"ties/JSQ/gray/hedge-delay":             "0024d84ed43049d603d3ddbab46207b1",
	"ties/JSQ/gray/hedge-quantile":          "2c007de420168012cece025c87d4b1e0",
	"ties/JSQ/gray/hedge-tied":              "58eded87ce0366b546562e94deca7e0c",
	"ties/JSQ/gray/resilience":              "827a3c1cece60003332e1aa80fbb1785",
	"ties/JSQ/gray/full":                    "dae058e397baa0c56979f21fa7b7c61f",
	"ties/Po2/nofault/off":                  "c7fd0351d0003c8da32727e799228922",
	"ties/Po2/nofault/shed":                 "ee64ece5be986a5a20fa1981054ba456",
	"ties/Po2/nofault/elastic":              "e7fb8596b12b922b3eb07a17f1f18970",
	"ties/Po2/nofault/hedge-delay":          "46c3ea75c20c586a2f82ca3d199d0856",
	"ties/Po2/nofault/hedge-quantile":       "43d6771c7758371ba93121a956f5cd31",
	"ties/Po2/nofault/hedge-tied":           "a3dee0c0f0b209b64e22beacb7fcce50",
	"ties/Po2/nofault/resilience":           "0e93930ceccc7ae6efe5382bfcdfb15b",
	"ties/Po2/nofault/full":                 "c1eda4d150f3acb10dfa44849a5943db",
	"ties/Po2/crash/off":                    "e2b13684fecb29dcb6d2f0a1f26a30c9",
	"ties/Po2/crash/shed":                   "a6f2c5218cc407573ff257fe5fdaadc8",
	"ties/Po2/crash/elastic":                "164d45398bb2f41f496eae19370f522e",
	"ties/Po2/crash/hedge-delay":            "584fb1bbe0c16aae9769845324c5504d",
	"ties/Po2/crash/hedge-quantile":         "74f20a5ba58e9988ad8d47271e798822",
	"ties/Po2/crash/hedge-tied":             "0713c9fa3f50932d8dc5c4e46a70c364",
	"ties/Po2/crash/resilience":             "8f706ebb9437c24ff4559c4218038d58",
	"ties/Po2/crash/full":                   "6db9c4811ca4640de58753a03e533cc0",
	"ties/Po2/gray/off":                     "c78f3dea8f600441e3997bb70fc66559",
	"ties/Po2/gray/shed":                    "8c21b5c41f2aa60d4061435dafe4f084",
	"ties/Po2/gray/elastic":                 "c17f9cfc8ad47fb5d378ada9ac28f3eb",
	"ties/Po2/gray/hedge-delay":             "45f1bb19ed414ba50a145b063c8b125a",
	"ties/Po2/gray/hedge-quantile":          "32d02a9ce8fda98698f4d4eee5bbd224",
	"ties/Po2/gray/hedge-tied":              "9e80aee99f40eaea2836cbac1d70b2fc",
	"ties/Po2/gray/resilience":              "379a44fef412488da635cc70945bd23b",
	"ties/Po2/gray/full":                    "b0379248db6606aa76dfcc278b53b79e",
}

// goldenFlightDigests are the digests of the full probe event stream of
// selected full-stack cells, recorded through an obs.FlightRecorder.
var goldenFlightDigests = map[string]string{
	"overloaded/EFT/gray/full": "8a9f7ca32f9d1631f95b1ce43e914913", // 3467 events
	"ties/RR/crash/full":       "d9ed06ee150315fe77884ecf4d3c5867", // 1629 events
}

// digester hashes values by their exact bit patterns.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}
func (d *digester) int(v int)       { d.u64(uint64(int64(v))) }
func (d *digester) float(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
func (d *digester) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}
func (d *digester) floats(vs []float64) {
	d.int(len(vs))
	for _, v := range vs {
		d.float(v)
	}
}
func (d *digester) ints(vs []int) {
	d.int(len(vs))
	for _, v := range vs {
		d.int(v)
	}
}
func (d *digester) bools(vs []bool) {
	d.int(len(vs))
	for _, v := range vs {
		d.bool(v)
	}
}
func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// digestRun hashes a run's schedule, every disposition vector and every
// ElasticMetrics counter.
func digestRun(s *core.Schedule, em *ElasticMetrics) string {
	d := &digester{h: sha256.New()}
	d.ints(s.Machine)
	d.floats(s.Start)
	d.floats(em.Flows)
	d.floats(em.Stretches)
	d.floats(em.Busy)
	d.float(em.Makespan)
	d.ints(em.Attempts)
	d.bools(em.Dropped)
	d.bools(em.Parked)
	d.floats(em.Downtime)
	d.float(em.Horizon)
	d.bools(em.Rejected)
	d.bools(em.Shed)
	d.int(len(em.Reason))
	for _, r := range em.Reason {
		d.str(r)
	}
	d.int(em.Ejections)
	d.int(em.Readmissions)
	d.int(em.Brownouts)
	d.bool(em.Membership != nil)
	if ms := em.Membership; ms != nil {
		d.int(ms.Capacity)
		d.int(ms.Initial)
		d.int(len(ms.Changes))
		for _, c := range ms.Changes {
			d.float(c.At)
			d.int(c.Machine)
			d.bool(c.Join)
			d.int(c.Members)
		}
	}
	d.floats(em.Dispatched)
	d.int(em.ScaleUps)
	d.int(em.ScaleDowns)
	d.int(em.Handoffs)
	d.float(em.WarmUpTime)
	d.float(em.MachineHours)
	d.bools(em.Hedged)
	d.ints(em.HedgeCopyServer)
	d.floats(em.HedgeCopyAt)
	d.bools(em.HedgeWonByCopy)
	d.int(em.HedgesIssued)
	d.int(em.HedgeWinsPrimary)
	d.int(em.HedgeWinsCopy)
	d.int(em.HedgesCancelled)
	d.int(em.HedgesRevoked)
	d.float(em.CancelledWork)
	d.float(em.DuplicateWork)
	d.int(em.RetriesRequested)
	d.int(em.RetriesIssued)
	d.int(em.RetriesDropped)
	d.bools(em.BudgetDropped)
	d.int(em.BreakerOpens)
	d.int(em.BreakerCloses)
	d.int(em.BreakerProbes)
	d.int(len(em.BreakerSpans))
	for _, sp := range em.BreakerSpans {
		d.int(sp.Server)
		d.float(sp.OpenedAt)
		d.float(sp.HalfOpenAt)
		d.float(sp.EndedAt)
		d.bool(sp.Closed)
	}
	d.bools(em.ProbeDispatch)
	return d.sum()
}

// digestEvents hashes every field of every event, in order.
func digestEvents(evs []obs.Event) string {
	d := &digester{h: sha256.New()}
	d.int(len(evs))
	for _, ev := range evs {
		d.int(int(ev.Kind))
		d.float(ev.T)
		d.int(ev.Task)
		d.int(ev.Server)
		d.float(ev.Start)
		d.float(ev.End)
		d.float(ev.Release)
		d.float(ev.Proc)
		d.float(ev.Ready)
		d.int(ev.Attempt)
		d.int(ev.Lost)
		d.int(ev.Members)
		d.int(ev.Handoffs)
		d.str(ev.Reason)
		d.bool(ev.Active)
		d.int(ev.From)
		d.bool(ev.Copy)
		d.bool(ev.Started)
	}
	return d.sum()
}

// TestEngineGoldenDigests is the equivalence proof for changes to the
// unified engine's internals: every router × fault plan × control stack
// cell, on an overloaded and a tie-dense instance, must reproduce the
// digest of its schedule, flows, dispositions and counters exactly. The
// full-stack cells named in goldenFlightDigests also pin the whole probe
// event stream. One arena serves every cell, so recycling state across
// runs of different shapes is covered too.
func TestEngineGoldenDigests(t *testing.T) {
	arena := NewArena()
	policy := RetryPolicy{Backoff: 0.5, BackoffFactor: 2, MaxAttempts: 6}
	seen := 0
	for _, in := range goldenInstances {
		inst := in.make()
		for _, rt := range goldenRouters {
			for _, pl := range goldenPlans {
				plan := pl.make(inst)
				for _, cs := range goldenControlSets {
					name := in.name + "/" + rt.name + "/" + pl.name + "/" + cs.name
					ctl := cs.make(inst)
					var rec *obs.FlightRecorder
					var probe obs.Probe
					wantFlight, flight := goldenFlightDigests[name]
					if flight {
						rec = obs.NewFlightRecorder(1 << 16)
						probe = rec
					}
					s, em, err := arena.RunResilient(inst, rt.make(), plan, policy, ctl.ocfg, ctl.ecfg, ctl.hcfg, ctl.rcfg, probe)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					seen++
					if got, want := digestRun(s, em), goldenDigests[name]; got != want {
						t.Errorf("%s: digest %s, want %s", name, got, want)
					}
					if flight {
						if rec.Dropped() > 0 {
							t.Fatalf("%s: flight ring overflowed by %d events", name, rec.Dropped())
						}
						if got := digestEvents(rec.Events()); got != wantFlight {
							t.Errorf("%s: event stream digest %s, want %s", name, got, wantFlight)
						}
					}
				}
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Errorf("ran %d cells, golden table has %d", seen, len(goldenDigests))
	}
}

// goldenRunRouters are the routers of the paper engine's golden matrix:
// the unified engine's four plus EFT with the Max tie and a seeded Random
// router. EFT reads only State.Completion; the others read State.QueueLen
// or ignore the state. Both golden instances have restricted sets, so
// every cell runs the generic dispatch loop.
var goldenRunRouters = append(goldenRouters[:len(goldenRouters):len(goldenRouters)],
	goldenRouter{"EFT-Max", func() Router { return EFTRouter{Tie: sched.MaxTie{}} }},
	goldenRouter{"Random", func() Router { return &RandomRouter{Seed: 5} }},
)

// goldenRunDigests are the digests of sim.Run's schedule, flows, busy
// times and makespan on every goldenInstances × goldenRunRouters cell,
// captured from the n-sized completion heap implementation.
var goldenRunDigests = map[string]string{
	"overloaded/EFT":     "62f0b327cf2d2091ca7304c1ef45cd78",
	"overloaded/EFT-Max": "a640e10266e39b9f3779c7d5468ab6c7",
	"overloaded/RR":      "5479c75894d62d9a61a3ce6936856446",
	"overloaded/JSQ":     "d5dcb278e28c62b06a79c2147a9c3b68",
	"overloaded/Po2":     "f1ddf5138307883bacdddc030f813b5c",
	"overloaded/Random":  "70d307142b51a63bdbb73ee0af08835d",
	"ties/EFT":           "f6ca3d19a1da24b7ba84a1846bddaf37",
	"ties/EFT-Max":       "7e6b1f9c08e11e23b37429f7a991ddf3",
	"ties/RR":            "0b9b466dbc926d5e0acccf33b2dbda6b",
	"ties/JSQ":           "10724421d04c62251cbf6b34222ed290",
	"ties/Po2":           "35c6df7a678901f82b8532907caebc12",
	"ties/Random":        "012b61473486c519a4a739a08f06a106",
}

// goldenRunFlightDigests pin the full RunProbed event stream of selected
// cells, recorded through an obs.FlightRecorder.
var goldenRunFlightDigests = map[string]string{
	"overloaded/Po2": "6072481704705aa87ee5fe6e30783f2b", // 2101 events
	"ties/JSQ":       "b52976463be4029f3c9d5355ded48908", // 1201 events
}

// digestPaperRun hashes the parts of a sim.Run result that routing decides.
func digestPaperRun(s *core.Schedule, m *Metrics) string {
	d := &digester{h: sha256.New()}
	d.ints(s.Machine)
	d.floats(s.Start)
	d.floats(m.Flows)
	d.floats(m.Busy)
	d.float(m.Makespan)
	return d.sum()
}

// TestRunGoldenDigests is the equivalence proof for changes to sim.Run's
// internals: each instance × router cell must reproduce its digest exactly,
// and the cells in goldenRunFlightDigests their whole probe event stream.
// EFT never reads QueueLen, so the JSQ, Po2 and tie-dense cells are the ones
// that catch a wrong queue length.
func TestRunGoldenDigests(t *testing.T) {
	seen := 0
	for _, in := range goldenInstances {
		inst := in.make()
		for _, rt := range goldenRunRouters {
			name := in.name + "/" + rt.name
			var rec *obs.FlightRecorder
			var probe obs.Probe
			wantFlight, flight := goldenRunFlightDigests[name]
			if flight {
				rec = obs.NewFlightRecorder(1 << 14)
				probe = rec
			}
			s, m, err := RunProbed(inst, rt.make(), probe)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			seen++
			if got, want := digestPaperRun(s, m), goldenRunDigests[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
			if flight {
				if rec.Dropped() > 0 {
					t.Fatalf("%s: flight ring overflowed by %d events", name, rec.Dropped())
				}
				if got := digestEvents(rec.Events()); got != wantFlight {
					t.Errorf("%s: event stream digest %s, want %s", name, got, wantFlight)
				}
			}
		}
	}
	if seen != len(goldenRunDigests) {
		t.Errorf("ran %d cells, golden table has %d", seen, len(goldenRunDigests))
	}
}
