//! Fault model: typed simulator errors, deterministic fault injection, and
//! retry accounting.
//!
//! Real deployments of the paper's system lose work to transient GPU faults:
//! allocations fail under memory pressure, cudaMemcpy occasionally returns a
//! transient error on a busy link, and kernel launches fail when the driver
//! is saturated. This module models those events *deterministically*: a
//! [`FaultPlan`] draws each fault from a counter-indexed hash of its seed, so
//! the same seed and workload produce byte-identical fault sequences — and
//! therefore byte-identical counters and reports — across runs.
//!
//! Errors surface as [`SimError`]; operators retry transient faults under a
//! [`RetryPolicy`] whose deterministic exponential backoff is charged to the
//! counters (`retries`, `retry_backoff_ns`) and priced by the cost model.

use serde::Serialize;
use std::fmt;

/// Typed errors raised by the simulated device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SimError {
    /// A device spec failed validation (e.g. non-power-of-two cacheline).
    InvalidSpec(String),
    /// An operator configuration is invalid (e.g. zero-sized window).
    InvalidConfig(String),
    /// A device-memory allocation exceeded the HBM capacity budget.
    OutOfDeviceMemory {
        /// Bytes the allocation would have reserved (page-rounded).
        requested: u64,
        /// Device bytes live at the time of the request.
        live: u64,
        /// The device's HBM capacity budget in simulated bytes.
        budget: u64,
    },
    /// A counter-interval delta was taken from snapshots captured out of
    /// order (or across a counter reset): the named field decreased.
    /// Raised by [`Counters::checked_delta`](crate::counters::Counters);
    /// a report built from such a delta would attribute garbage per-phase
    /// costs, so the inversion is surfaced instead.
    CounterDeltaInverted {
        /// The first counter field observed to decrease.
        field: &'static str,
    },
    /// An injected (transient) allocation failure.
    AllocFault,
    /// An injected transient fault on an interconnect transfer.
    TransientTransferFault,
    /// An injected kernel-launch failure.
    KernelLaunchFailed,
    /// The device is gone: a chaos device-loss window is active. Unlike the
    /// injected transient faults this is *not* retryable in place — the
    /// caller must wait out the window (see
    /// [`ChaosSchedule::clearance_s`](crate::chaos::ChaosSchedule::clearance_s))
    /// and rebuild any device-resident state.
    DeviceLost,
}

impl SimError {
    /// Whether retrying the failed operation may succeed. Injected faults
    /// are transient; budget and validation errors are deterministic and
    /// must be handled by degradation instead.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::AllocFault | SimError::TransientTransferFault | SimError::KernelLaunchFailed
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSpec(msg) => write!(f, "invalid device spec: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::OutOfDeviceMemory {
                requested,
                live,
                budget,
            } => write!(
                f,
                "out of device memory: requested {requested} B with {live} B live \
                 of {budget} B budget"
            ),
            SimError::CounterDeltaInverted { field } => write!(
                f,
                "counter delta inverted: field '{field}' decreased between snapshots"
            ),
            SimError::AllocFault => write!(f, "transient device allocation failure (injected)"),
            SimError::TransientTransferFault => {
                write!(f, "transient interconnect transfer fault (injected)")
            }
            SimError::KernelLaunchFailed => write!(f, "kernel launch failed (injected)"),
            SimError::DeviceLost => write!(f, "device lost (chaos device-loss window active)"),
        }
    }
}

impl std::error::Error for SimError {}

/// The kinds of faults a [`FaultPlan`] can inject. Each kind draws from an
/// independent deterministic sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// Device-memory allocation failures.
    Alloc,
    /// Transient interconnect transfer faults.
    Transfer,
    /// Kernel-launch failures.
    Launch,
}

impl FaultKind {
    #[inline]
    fn salt(self) -> u64 {
        match self {
            FaultKind::Alloc => 0x616c6c6f63_u64,
            FaultKind::Transfer => 0x7866657221_u64,
            FaultKind::Launch => 0x6c61756e63_u64,
        }
    }
}

/// Deterministic fault-injection plan. Rates are probabilities in `[0, 1]`
/// applied per *drawing site* (one draw per allocation, per transfer
/// operation, per fallible kernel launch). The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed of the deterministic fault sequences.
    pub seed: u64,
    /// Probability a device allocation fails transiently.
    pub alloc_failure_rate: f64,
    /// Probability an interconnect transfer operation faults.
    pub transfer_fault_rate: f64,
    /// Probability a kernel launch fails.
    pub launch_failure_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            alloc_failure_rate: 0.0,
            transfer_fault_rate: 0.0,
            launch_failure_rate: 0.0,
        }
    }

    /// A plan with the given seed and no faults (combine with `with_*`).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Set the device-allocation failure rate.
    pub fn with_alloc_failures(mut self, rate: f64) -> Self {
        self.alloc_failure_rate = rate;
        self
    }

    /// Set the transfer fault rate.
    pub fn with_transfer_faults(mut self, rate: f64) -> Self {
        self.transfer_fault_rate = rate;
        self
    }

    /// Set the kernel-launch failure rate.
    pub fn with_launch_failures(mut self, rate: f64) -> Self {
        self.launch_failure_rate = rate;
        self
    }

    /// Whether any fault kind has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.alloc_failure_rate > 0.0
            || self.transfer_fault_rate > 0.0
            || self.launch_failure_rate > 0.0
    }

    /// Validate every rate: each must be a number in `[0, 1]`. NaN or
    /// out-of-range rates would silently skew the deterministic draws, so
    /// the engine rejects them at plan install.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, rate) in [
            ("alloc_failure_rate", self.alloc_failure_rate),
            ("transfer_fault_rate", self.transfer_fault_rate),
            ("launch_failure_rate", self.launch_failure_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(SimError::InvalidConfig(format!(
                    "fault plan {name} must be in [0, 1], got {rate}"
                )));
            }
        }
        Ok(())
    }

    /// Whether the `seq`-th draw of `kind` faults. Pure function of
    /// `(seed, kind, seq)` — the engine supplies a monotone per-kind
    /// sequence number so fault positions are reproducible.
    pub fn should_fault(&self, kind: FaultKind, seq: u64) -> bool {
        let rate = match kind {
            FaultKind::Alloc => self.alloc_failure_rate,
            FaultKind::Transfer => self.transfer_fault_rate,
            FaultKind::Launch => self.launch_failure_rate,
        };
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ kind.salt().wrapping_mul(0x9e3779b97f4a7c15) ^ seq);
        // Compare the top 53 bits against the rate as a fraction of 2^53.
        ((h >> 11) as f64) < rate * (1u64 << 53) as f64
    }
}

/// Bounded-retry policy for transient faults. Backoff is deterministic
/// exponential: attempt `k` (0-based) charges `base_backoff_ns << k` to the
/// counters, which the cost model prices as stall time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Maximum retries per operation before the fault becomes an error.
    pub max_retries: u32,
    /// Backoff charged for the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ns: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `attempt` (0-based), in ns.
    /// Saturates at `u64::MAX` instead of overflowing for large bases
    /// (`base << 20` already overflows a u64 base above 2^44).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.min(20);
        self.base_backoff_ns.saturating_mul(1u64 << shift)
    }
}

/// The SplitMix64 finalizer: the workspace's one counter-indexed hash.
/// Every seeded draw (fault injection, chaos pages, traces, retry jitter,
/// tuner exploration, span ids) goes through it, so a seed replays
/// bit-identically everywhere.
#[inline]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform f64 in `(0, 1]` from the `seq`-th draw of the `(seed, salt)`
/// stream (never 0, so `ln` stays finite).
#[inline]
pub fn unit(seed: u64, salt: u64, seq: u64) -> f64 {
    let h = splitmix64(seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15) ^ seq);
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_never_faults() {
        let plan = FaultPlan::none();
        for seq in 0..1000 {
            assert!(!plan.should_fault(FaultKind::Alloc, seq));
            assert!(!plan.should_fault(FaultKind::Transfer, seq));
            assert!(!plan.should_fault(FaultKind::Launch, seq));
        }
    }

    #[test]
    fn fault_draws_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::seeded(7).with_transfer_faults(0.25);
        let a: Vec<bool> = (0..4096)
            .map(|s| plan.should_fault(FaultKind::Transfer, s))
            .collect();
        let b: Vec<bool> = (0..4096)
            .map(|s| plan.should_fault(FaultKind::Transfer, s))
            .collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&x| x).count();
        // 25% ± generous slack over 4096 draws.
        assert!((700..=1350).contains(&hits), "got {hits}");
        // Other kinds stay silent.
        assert!((0..4096).all(|s| !plan.should_fault(FaultKind::Alloc, s)));
    }

    #[test]
    fn kinds_draw_independent_sequences() {
        let plan = FaultPlan::seeded(3)
            .with_alloc_failures(0.5)
            .with_launch_failures(0.5);
        let alloc: Vec<bool> = (0..256)
            .map(|s| plan.should_fault(FaultKind::Alloc, s))
            .collect();
        let launch: Vec<bool> = (0..256)
            .map(|s| plan.should_fault(FaultKind::Launch, s))
            .collect();
        assert_ne!(alloc, launch);
    }

    #[test]
    fn rate_extremes() {
        let always = FaultPlan::seeded(1).with_launch_failures(1.0);
        assert!((0..64).all(|s| always.should_fault(FaultKind::Launch, s)));
        let never = FaultPlan::seeded(1).with_launch_failures(0.0);
        assert!((0..64).all(|s| !never.should_fault(FaultKind::Launch, s)));
    }

    #[test]
    fn transient_classification() {
        assert!(SimError::AllocFault.is_transient());
        assert!(SimError::TransientTransferFault.is_transient());
        assert!(SimError::KernelLaunchFailed.is_transient());
        assert!(!SimError::InvalidSpec("x".into()).is_transient());
        assert!(
            !SimError::DeviceLost.is_transient(),
            "device loss needs recovery, not an in-place retry"
        );
        assert!(!SimError::CounterDeltaInverted { field: "lookups" }.is_transient());
        assert!(!SimError::OutOfDeviceMemory {
            requested: 1,
            live: 0,
            budget: 0
        }
        .is_transient());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(0), 10_000);
        assert_eq!(p.backoff_ns(1), 20_000);
        assert_eq!(p.backoff_ns(2), 40_000);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // Regression: `base << 20` overflowed u64 for bases above 2^44.
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_ns: u64::MAX / 2,
        };
        assert_eq!(p.backoff_ns(0), u64::MAX / 2);
        assert_eq!(p.backoff_ns(2), u64::MAX, "two doublings saturate");
        assert_eq!(p.backoff_ns(64), u64::MAX, "large attempts stay clamped");
        // Monotonicity survives saturation.
        let q = RetryPolicy {
            max_retries: 3,
            base_backoff_ns: 1 << 50,
        };
        let mut last = 0;
        for attempt in 0..32 {
            let b = q.backoff_ns(attempt);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(last, u64::MAX);
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::seeded(1)
            .with_transfer_faults(1.0)
            .validate()
            .is_ok());
        let nan = FaultPlan::seeded(1).with_alloc_failures(f64::NAN);
        assert!(matches!(nan.validate(), Err(SimError::InvalidConfig(_))));
        let negative = FaultPlan::seeded(1).with_launch_failures(-0.5);
        assert!(negative.validate().is_err());
        let too_big = FaultPlan::seeded(1).with_transfer_faults(1.5);
        let msg = too_big.validate().unwrap_err().to_string();
        assert!(msg.contains("transfer_fault_rate"), "{msg}");
    }
}
