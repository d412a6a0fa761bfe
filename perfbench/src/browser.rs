//! `browser`: the §5.1 IE stand-in at paper scale, one caller in a closed
//! loop. One op takes one seeded schedule through native execution, record,
//! container encode, decode, replay, detect, classify (default engine on one
//! worker, trust off) and the report's JSON.
//!
//! Why: classify dominates the op while `racecheck` and `serviced` sit
//! idle, so this is where a classify or report change must show.

use std::sync::{Arc, OnceLock};

use replay_race::classify::TrustStatic;
use tvm::predecode::DecodedProgram;
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};

use crate::layers::{one_shot, Steps};
use crate::stats::{fnv1a, mix};
use crate::trace::Tracer;
use crate::{OpResult, Options, Workload, DEFAULT_SEED};

/// Schedules per run. Ops cycle through them, so a run's latency is a mix
/// over many interleavings rather than a few schedules' luck: with 32, the
/// median op of one seed's mix sat 8% above another's, run after run.
const SCHEDULES: usize = 128;
const SMOKE_SCHEDULES: usize = 2;
/// Schedules set-up warms up on.
const WARM_UP: usize = 4;

/// Report digests of [`DEFAULT_SEED`]'s schedules, pinned at the commit
/// that introduced the benchmark.
const PINNED: [u64; SCHEDULES] = [
    0x5f02_6400_af88_3c2e,
    0xe034_b5a3_9609_8d2c,
    0x6b74_ea73_6ce1_2435,
    0xe46b_e11d_83bc_824a,
    0x815e_637e_3367_9ba0,
    0xbcbb_ebd6_7f7b_8aea,
    0x34d4_0c4b_9342_a2a2,
    0x085d_03e0_d32b_1af7,
    0x1e48_1c93_7152_05fe,
    0xe17a_edae_5f1d_a275,
    0x3791_5550_4471_ce55,
    0x2fa4_f10a_a961_8fce,
    0x88ac_0d76_ea88_dbb7,
    0x7691_deae_0d13_431b,
    0x1e36_3d40_7b92_a6a4,
    0x8604_3ed9_59d1_3ed3,
    0xa58f_92d2_7a73_5067,
    0x865a_39bd_2819_2996,
    0x7c19_71b6_c98c_4128,
    0xce1d_e74b_3506_1334,
    0x2318_0980_a555_c0ec,
    0x24df_ed2f_1f09_edc3,
    0xdaa5_53fc_caf4_a173,
    0xbf89_504b_ce09_a240,
    0xcab3_22a4_c585_b478,
    0x854c_4591_4bf8_076f,
    0xf922_3fb6_eaab_5d9a,
    0x1a7c_a628_769f_5804,
    0x8223_c5db_6683_453e,
    0xabec_6701_7c3d_4d90,
    0x5ea3_ba84_dc2e_1d58,
    0x40c4_049c_cc12_7b54,
    0xca36_3bc8_ce92_7d4b,
    0x968c_dd24_0750_00e0,
    0xe2d3_35eb_c875_aefc,
    0x4ad6_4a0a_2ea4_4bfa,
    0x865e_b230_d441_406c,
    0xdd14_06ba_d2e3_13d0,
    0x2372_ce57_5c10_14ce,
    0x869b_1d18_a24e_0f9f,
    0x2720_6604_6eae_d8ee,
    0x765b_28f2_0f97_adf1,
    0xc5e9_4ffb_4091_2592,
    0xa1c6_af4e_3955_8694,
    0x09f3_46d8_ccf7_7314,
    0x573c_6f52_7a47_e849,
    0x76ec_0e80_654e_af0c,
    0xe043_60b0_98fb_fe38,
    0x5594_49fd_4c38_f39f,
    0x251a_f3d0_9b25_5bd2,
    0x4959_9c83_0d16_675f,
    0x0454_2bd2_e018_a897,
    0x575f_7f5c_0bba_c58c,
    0x37c9_491f_00ea_e8e6,
    0xc3f9_b26f_2878_d5e0,
    0xb343_8e21_37db_290d,
    0x85b6_5cf9_3a56_5bda,
    0xa1aa_f380_cf3f_5b7c,
    0xc4b7_9661_057a_593c,
    0x9afc_2f2b_d22f_d1bf,
    0x7e2a_0d21_e1ac_a8a1,
    0x022f_5cc2_c80c_d063,
    0x2c20_fe27_c445_7e56,
    0xa741_157b_6124_d058,
    0xc86a_d8b2_11d6_4c5c,
    0xe13d_e909_d17e_24c2,
    0x99f9_4724_66b6_541b,
    0x7e1c_9bfc_6b62_20c0,
    0x2987_0db1_3141_622c,
    0x105b_4c3d_fea0_e1a4,
    0xa07b_8115_8aad_a702,
    0xa8f4_a4f4_4d39_9bf5,
    0xd3e3_9c04_043b_541e,
    0xc5ff_ba1c_1642_fddd,
    0x074d_6caf_d5d7_debd,
    0x99a6_9bff_b2ec_64fb,
    0xee0f_5230_e32a_cc70,
    0x4ef4_b35e_aa89_cab4,
    0x7b38_8f63_87fe_08ba,
    0x01ea_081a_c4af_a9e2,
    0x184f_f77e_1498_dd45,
    0xb1ed_ddc1_b17d_a9a6,
    0x8c1c_3fcf_7466_dd5a,
    0x9993_6825_c15f_0f53,
    0x9e33_51ec_696f_c2ca,
    0xa8fa_261f_d61d_65b4,
    0xc93c_5769_d298_8967,
    0x3604_c6db_383e_a63b,
    0x6492_f0cc_3b67_bac3,
    0x8f47_66de_7c91_67c7,
    0x0c9a_1426_030f_08bc,
    0xd03f_8370_1873_c9d8,
    0xb7f0_4172_7d6c_56c6,
    0x45da_8365_94a9_7c7c,
    0x32ce_490e_200f_c5aa,
    0x0ba9_1071_edfc_9402,
    0x23dd_3c60_f876_9e58,
    0x693b_ae7b_31f4_251d,
    0xe61a_0f59_b00b_9b52,
    0x1b71_a6fa_5733_24d7,
    0xda74_47c4_a169_71e5,
    0x127c_560b_6e49_7e69,
    0xe7c7_e879_a1fb_24dc,
    0x8203_7674_a247_fa9b,
    0xc829_1ab2_a245_4038,
    0xf6f3_e594_4f29_23f6,
    0x881a_dae0_d3a1_8ee6,
    0xe5a7_f3e2_295a_b70e,
    0x7534_379d_94b1_b94b,
    0x2447_ff0d_5aa3_c1ba,
    0x1d98_aad3_c6e0_bc25,
    0xa904_529a_1de3_8750,
    0x5bda_529f_98cc_e8d0,
    0x74ec_cb2d_bc5b_fef7,
    0x2c71_ecbc_3d96_0614,
    0xcc6a_0f45_752c_9e40,
    0x4ad2_15ad_71a7_e7af,
    0x4356_bb8b_2109_7041,
    0xbeb2_49e8_2fa1_7f89,
    0x48b2_fb56_38b5_4dc3,
    0x2452_980d_e688_b294,
    0xecd6_12d9_55ff_c807,
    0xbf52_4d6b_3859_61ca,
    0x8ba0_cfee_4b9c_249e,
    0x7e8a_e6cb_2a49_feca,
    0xe88a_9d62_50e2_fe56,
    0xbe8c_5c18_1afd_b4c4,
    0xadc5_ac9d_3af2_34ad,
];
const PINNED_SMOKE: [u64; SMOKE_SCHEDULES] = [0x7c4a_19e7_134d_184e, 0x29ab_073a_bc7f_1521];

/// Classify runs on one worker (`--jobs 1`), so the op is single-threaded
/// and its process CPU time is its latency on an unshared core. With the
/// default worker per vCPU the op's CPU time counts both workers, and its
/// wall time on a shared 2-vCPU host measures the host's scheduler.
const STEPS: Steps = Steps { native: true, trust: TrustStatic::Off, jobs: 1 };

pub fn config(smoke: bool) -> BrowserConfig {
    if smoke {
        BrowserConfig { fetchers: 2, parsers: 2, jobs: 8, work: 8 }
    } else {
        BrowserConfig::paper_scale()
    }
}

/// The `k`-th schedule derived from `seed`.
pub fn schedule(seed: u64, k: u64) -> RunConfig {
    RunConfig::chunked(mix(seed, k), 1, 8).with_max_steps(50_000_000)
}

pub struct Browser {
    decoded: Arc<DecodedProgram>,
    runs: Vec<RunConfig>,
    /// Expected report digest per schedule: pinned for the default seed,
    /// otherwise the digest of the schedule's first op.
    expected: Vec<OnceLock<u64>>,
}

impl Browser {
    pub fn set_up(opts: &Options) -> Result<Self, String> {
        let decoded = Arc::new(DecodedProgram::new(browser_program(&config(opts.smoke))));
        let n = if opts.smoke { SMOKE_SCHEDULES } else { SCHEDULES };
        let runs: Vec<RunConfig> = (0..n as u64).map(|k| schedule(opts.seed, k)).collect();
        let expected: Vec<OnceLock<u64>> = (0..n).map(|_| OnceLock::new()).collect();
        if opts.seed == DEFAULT_SEED {
            let pinned = if opts.smoke { &PINNED_SMOKE[..] } else { &PINNED[..] };
            for (slot, digest) in expected.iter().zip(pinned) {
                slot.get_or_init(|| opts.pin.unwrap_or(*digest));
            }
        }
        let browser = Browser { decoded, runs, expected };
        // Warm-up ops. A failed check is not fatal here: the run's ops on
        // the same schedules fail it again, and count.
        for k in 0..WARM_UP.min(n) {
            browser.op(&Tracer::new(), k as u64);
        }
        Ok(browser)
    }
}

impl Workload for Browser {
    fn op(&self, tr: &Tracer, id: u64) -> OpResult {
        let k = (id % self.runs.len() as u64) as usize;
        let (pass, latency_ms) =
            tr.op(id, || one_shot(tr, id, &self.decoded, &self.runs[k], STEPS));
        let error = match pass.map(|p| fnv1a(p.json.as_bytes())) {
            Err(e) => Some(e),
            Ok(digest) => {
                let expected = *self.expected[k].get_or_init(|| digest);
                (digest != expected).then(|| {
                    format!("schedule {k}: report digest {digest:016x}, expected {expected:016x}")
                })
            }
        };
        OpResult { latency_ms, error }
    }
}
