//! The per-architecture event catalog: events, constraints, invariants, and
//! derived events, all resolved to dense [`EventId`]s.

use crate::arch::{Arch, ArchParams, PmuSpec};
use crate::derived::DerivedEvent;
use crate::event::{Domain, EventDesc, Semantic};
use crate::expr::Expr;
use crate::id::EventId;
use crate::invariant::Invariant;
use crate::source::{SourceDesc, SourceId, SourceKind, SourceNoise};
use crate::synth::{synthesize, FreeParams};
use std::collections::HashMap;

/// A processor's performance-monitoring catalog.
///
/// Aggregates everything BayesPerf needs to know about a CPU before any
/// measurement happens: the countable events, which registers can count
/// them, the PMU register inventory, the microarchitectural invariants
/// connecting events, and the derived events users typically measure.
#[derive(Debug, Clone)]
pub struct Catalog {
    arch: Arch,
    params: ArchParams,
    pmu: PmuSpec,
    events: Vec<EventDesc>,
    by_semantic: HashMap<Semantic, EventId>,
    invariants: Vec<Invariant>,
    derived: Vec<DerivedEvent>,
    nominal: Vec<f64>,
    sources: Vec<SourceDesc>,
    source_of: Vec<SourceId>,
}

impl Catalog {
    /// Builds the catalog for an architecture (PMU events only — the
    /// implicit PMU source is the sole registered observation source).
    pub fn new(arch: Arch) -> Self {
        Self::build(arch, false)
    }

    /// Builds the catalog extended with the heterogeneous observation
    /// plane: the gauge events ([`Semantic::gauges`]) are appended after
    /// the PMU events, gauge [`SourceDesc`]s (disk-ops, disk-bytes, power)
    /// are registered at distinct cadences with their own noise models,
    /// and the cross-source invariant and derived-event libraries couple
    /// the planes in one factor graph.
    ///
    /// PMU event ids, invariants, and derived events are a strict prefix
    /// of the base catalog's, so everything built against
    /// [`Catalog::new`] works unchanged on an extended catalog.
    pub fn with_observation_plane(arch: Arch) -> Self {
        Self::build(arch, true)
    }

    fn build(arch: Arch, observation_plane: bool) -> Self {
        let params = ArchParams::for_arch(arch);
        let pmu = PmuSpec::for_arch(arch);
        let mut events = Vec::new();
        let mut by_semantic = HashMap::new();

        for &sem in Semantic::all() {
            if sem == Semantic::RefCycles && params.ref_cycle_ratio.is_none() {
                continue;
            }
            let id = EventId::from_raw(events.len() as u16);
            let (domain, counter_mask, needs_msr) = placement(arch, sem);
            let desc = EventDesc {
                id,
                name: event_name(arch, sem).to_owned(),
                semantic: sem,
                domain,
                counter_mask,
                needs_msr,
            };
            by_semantic.insert(sem, id);
            events.push(desc);
        }

        let mut sources = vec![SourceDesc::pmu()];
        let mut source_of = vec![SourceId::PMU; events.len()];
        if observation_plane {
            for &sem in Semantic::gauges() {
                let id = EventId::from_raw(events.len() as u16);
                let desc = EventDesc {
                    id,
                    name: event_name(arch, sem).to_owned(),
                    semantic: sem,
                    domain: Domain::Gauge,
                    counter_mask: 0,
                    needs_msr: false,
                };
                by_semantic.insert(sem, id);
                events.push(desc);
            }
            source_of.resize(events.len(), SourceId::PMU);
            for (source, owned) in gauge_sources() {
                let sid = SourceId::from_raw(sources.len() as u16);
                sources.push(SourceDesc { id: sid, ..source });
                for sem in owned {
                    source_of[by_semantic[&sem].index()] = sid;
                }
            }
        }

        let mut catalog = Catalog {
            arch,
            params,
            pmu,
            events,
            by_semantic,
            invariants: Vec::new(),
            derived: Vec::new(),
            nominal: Vec::new(),
            sources,
            source_of,
        };
        catalog.invariants = build_invariants(&catalog);
        catalog.derived = build_derived(&catalog);
        if observation_plane {
            catalog
                .invariants
                .extend(build_cross_source_invariants(&catalog));
            catalog.derived.extend(build_cross_source_derived(&catalog));
        }
        catalog.nominal = synthesize(&catalog, &FreeParams::default())
            .into_iter()
            .map(|v| v.max(1.0))
            .collect();
        catalog
    }

    /// The architecture this catalog describes.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Fixed microarchitectural parameters.
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// PMU register inventory.
    pub fn pmu(&self) -> PmuSpec {
        self.pmu
    }

    /// Number of events in the catalog.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the catalog has no events (never the case for built catalogs).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks up the event implementing a semantic role.
    ///
    /// Returns `None` when the architecture lacks the role (e.g.
    /// [`Semantic::RefCycles`] on ppc64).
    pub fn id(&self, sem: Semantic) -> Option<EventId> {
        self.by_semantic.get(&sem).copied()
    }

    /// Like [`Catalog::id`] but panics with a descriptive message.
    ///
    /// # Panics
    ///
    /// Panics if the architecture does not implement `sem`.
    pub fn require(&self, sem: Semantic) -> EventId {
        self.id(sem)
            .unwrap_or_else(|| panic!("{} does not implement {sem}", self.arch))
    }

    /// The descriptor for an event.
    pub fn event(&self, id: EventId) -> &EventDesc {
        &self.events[id.index()]
    }

    /// Iterates over all event descriptors in id order.
    pub fn iter(&self) -> impl Iterator<Item = &EventDesc> {
        self.events.iter()
    }

    /// All programmable (multiplexable) events, in a stable priority order
    /// used by counter-count sweeps (Figs. 1 and 8).
    pub fn programmable_events(&self) -> Vec<EventId> {
        self.events
            .iter()
            .filter(|e| e.is_programmable())
            .map(|e| e.id)
            .collect()
    }

    /// The invariant library for this architecture.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Invariants that mention `id`.
    pub fn invariants_of(&self, id: EventId) -> Vec<&Invariant> {
        self.invariants
            .iter()
            .filter(|inv| inv.events().contains(&id))
            .collect()
    }

    /// The ten derived events the evaluation measures (Fig. 6).
    pub fn derived_events(&self) -> &[DerivedEvent] {
        &self.derived
    }

    /// Typical magnitude of an event per mega-cycle; used to normalize
    /// variables for inference. Always ≥ 1.
    pub fn nominal_scale(&self, id: EventId) -> f64 {
        self.nominal[id.index()]
    }

    /// Expression helper: the event implementing `sem`.
    ///
    /// # Panics
    ///
    /// Panics if the architecture does not implement `sem`.
    pub fn ex(&self, sem: Semantic) -> Expr {
        Expr::event(self.require(sem))
    }

    /// The registered observation sources, in [`SourceId`] order. A base
    /// catalog has exactly one (the PMU); an extended catalog
    /// ([`Catalog::with_observation_plane`]) adds the gauge sources.
    pub fn sources(&self) -> &[SourceDesc] {
        &self.sources
    }

    /// The descriptor of one source, or `None` for an unregistered id.
    pub fn source(&self, id: SourceId) -> Option<&SourceDesc> {
        self.sources.get(id.index())
    }

    /// Which source owns (produces) an event. PMU events always map to
    /// [`SourceId::PMU`]; gauge events map to their registered source.
    pub fn source_of(&self, id: EventId) -> SourceId {
        self.source_of
            .get(id.index())
            .copied()
            .unwrap_or(SourceId::PMU)
    }

    /// Events owned by `source`, in id order.
    pub fn events_of_source(&self, source: SourceId) -> Vec<EventId> {
        self.events
            .iter()
            .filter(|e| self.source_of(e.id) == source)
            .map(|e| e.id)
            .collect()
    }
}

/// The simulated gauge source roster of an extended catalog: descriptor
/// template (id is assigned at registration) plus the semantics each
/// source owns. Cadences are deliberately heterogeneous — disk-ops every
/// 4 windows, disk-bytes every 8, power every 16 — so fusion always deals
/// with rates the PMU never produces.
fn gauge_sources() -> Vec<(SourceDesc, Vec<Semantic>)> {
    use Semantic::*;
    vec![
        (
            SourceDesc {
                id: SourceId::PMU, // reassigned at registration
                name: "disk-ops".to_string(),
                kind: SourceKind::Gauge,
                cadence: 4,
                noise: SourceNoise::Gaussian {
                    rel_sigma: 0.02,
                    drift: 0.01,
                },
            },
            vec![DiskReadOps, DiskWriteOps],
        ),
        (
            SourceDesc {
                id: SourceId::PMU,
                name: "disk-bytes".to_string(),
                kind: SourceKind::Gauge,
                cadence: 8,
                noise: SourceNoise::Gaussian {
                    rel_sigma: 0.03,
                    drift: 0.02,
                },
            },
            vec![DiskReadBytes, DiskWriteBytes],
        ),
        (
            SourceDesc {
                id: SourceId::PMU,
                name: "power".to_string(),
                kind: SourceKind::Gauge,
                cadence: 16,
                noise: SourceNoise::Gaussian {
                    rel_sigma: 0.05,
                    drift: 0.03,
                },
            },
            vec![PowerWatts],
        ),
    ]
}

/// Vendor-style event name per architecture and semantic.
fn event_name(arch: Arch, sem: Semantic) -> &'static str {
    use Semantic::*;
    match arch {
        Arch::X86SkyLake => match sem {
            Cycles => "CPU_CLK_UNHALTED.THREAD",
            RefCycles => "CPU_CLK_UNHALTED.REF_TSC",
            Instructions => "INST_RETIRED.ANY",
            UopsIssued => "UOPS_ISSUED.ANY",
            UopsRetired => "UOPS_RETIRED.RETIRE_SLOTS",
            UopsBadSpec => "UOPS_ISSUED.BAD_SPEC",
            IdqUopsNotDelivered => "IDQ_UOPS_NOT_DELIVERED.CORE",
            IdqMiteUops => "IDQ.MITE_UOPS",
            IdqDsbUops => "IDQ.DSB_UOPS",
            IdqMsUops => "IDQ.MS_UOPS",
            RecoveryCycles => "INT_MISC.RECOVERY_CYCLES",
            BackendStallSlots => "RESOURCE_STALLS.SLOTS",
            MachineClears => "MACHINE_CLEARS.COUNT",
            BrInst => "BR_INST_RETIRED.ALL_BRANCHES",
            BrMisp => "BR_MISP_RETIRED.ALL_BRANCHES",
            IcacheMisses => "ICACHE_64B.IFTAG_MISS",
            ItlbMisses => "ITLB_MISSES.WALK_COMPLETED",
            DtlbMisses => "DTLB_LOAD_MISSES.WALK_COMPLETED",
            L1dMisses => "L1D.REPLACEMENT",
            L1dPendMissPending => "L1D_PEND_MISS.PENDING",
            L2References => "L2_RQSTS.REFERENCES",
            L2Misses => "L2_RQSTS.MISS",
            LlcReferences => "LONGEST_LAT_CACHE.REFERENCE",
            LlcHits => "LONGEST_LAT_CACHE.HIT",
            LlcMisses => "LONGEST_LAT_CACHE.MISS",
            LlcWritebacks => "L2_LINES_OUT.DIRTY",
            StallsTotal => "CYCLE_ACTIVITY.STALLS_TOTAL",
            StallsMemAny => "CYCLE_ACTIVITY.STALLS_MEM_ANY",
            StallsL2Pending => "CYCLE_ACTIVITY.STALLS_L2_PENDING",
            StallsL1dPending => "CYCLE_ACTIVITY.STALLS_L1D_PENDING",
            StallsOther => "CYCLE_ACTIVITY.STALLS_OTHER",
            OroDrdAnyCycles => "OFFCORE_REQUESTS_OUTSTANDING.CYCLES_WITH_DATA_RD",
            OroDrdBwCycles => "OFFCORE_REQUESTS_OUTSTANDING.DATA_RD_GE_6",
            OroDrdLatCycles => "OFFCORE_REQUESTS_OUTSTANDING.DATA_RD_LT_6",
            DmaTransactions => "UNC_IIO_DMA.TRANSACTIONS",
            ImcCasRd => "UNC_M_CAS_COUNT.RD",
            ImcCasWr => "UNC_M_CAS_COUNT.WR",
            IioWrAlloc => "UNC_IIO_DATA_REQ_OF_CPU.WR_ALLOC",
            IioWrFull => "UNC_IIO_DATA_REQ_OF_CPU.WR_FULL",
            IioWrPart => "UNC_IIO_DATA_REQ_OF_CPU.WR_PART",
            IioWrNonSnoop => "UNC_IIO_DATA_REQ_OF_CPU.WR_NONSNOOP",
            IioRdCode => "UNC_IIO_DATA_REQ_OF_CPU.RD_CODE",
            IioRdPart => "UNC_IIO_DATA_REQ_OF_CPU.RD_PART",
            IioWrTotal => "UNC_IIO_DATA_REQ_OF_CPU.WR_TOTAL",
            IioRdTotal => "UNC_IIO_DATA_REQ_OF_CPU.RD_TOTAL",
            // OS-level gauges are vendor-neutral; the names are shared
            // across architectures.
            DiskReadOps => "GAUGE_DISK.RD_OPS",
            DiskWriteOps => "GAUGE_DISK.WR_OPS",
            DiskReadBytes => "GAUGE_DISK.RD_BYTES",
            DiskWriteBytes => "GAUGE_DISK.WR_BYTES",
            PowerWatts => "GAUGE_POWER.PKG_WATTS",
        },
        Arch::Ppc64Power9 => match sem {
            Cycles => "PM_RUN_CYC",
            RefCycles => "PM_REF_CYC", // unused: ppc64 catalog omits RefCycles
            Instructions => "PM_RUN_INST_CMPL",
            UopsIssued => "PM_INST_DISP",
            UopsRetired => "PM_IOPS_CMPL",
            UopsBadSpec => "PM_INST_DISP_FLUSHED",
            IdqUopsNotDelivered => "PM_ICT_NOSLOT_CYC_SLOTS",
            IdqMiteUops => "PM_INST_FROM_DECODE",
            IdqDsbUops => "PM_INST_FROM_PREDECODE",
            IdqMsUops => "PM_INST_FROM_UCODE",
            RecoveryCycles => "PM_FLUSH_RECOVERY_CYC",
            BackendStallSlots => "PM_DISP_HELD_SLOTS",
            MachineClears => "PM_FLUSH_MPRED_NONBR",
            BrInst => "PM_BR_CMPL",
            BrMisp => "PM_BR_MPRED_CMPL",
            IcacheMisses => "PM_L1_ICACHE_MISS",
            ItlbMisses => "PM_ITLB_MISS",
            DtlbMisses => "PM_DTLB_MISS",
            L1dMisses => "PM_LD_MISS_L1",
            L1dPendMissPending => "PM_CMPLU_STALL_DMISS_PENDING_CYC",
            L2References => "PM_DATA_FROM_L2_REQ",
            L2Misses => "PM_DATA_FROM_L2MISS",
            LlcReferences => "PM_DATA_FROM_L3_REQ",
            LlcHits => "PM_DATA_FROM_L3",
            LlcMisses => "PM_DATA_FROM_L3MISS",
            LlcWritebacks => "PM_L3_CO_MEM",
            StallsTotal => "PM_CMPLU_STALL",
            StallsMemAny => "PM_CMPLU_STALL_MEM_ANY",
            StallsL2Pending => "PM_CMPLU_STALL_DMISS_L3MISS",
            StallsL1dPending => "PM_CMPLU_STALL_DMISS_L2L3",
            StallsOther => "PM_CMPLU_STALL_OTHER",
            OroDrdAnyCycles => "PM_MEM_READ_OUTSTANDING_CYC",
            OroDrdBwCycles => "PM_MEM_READ_BW_CYC",
            OroDrdLatCycles => "PM_MEM_READ_LAT_CYC",
            DmaTransactions => "PM_IO_DMA_TRANSACTIONS",
            ImcCasRd => "PM_MEM_READ_CMD",
            ImcCasWr => "PM_MEM_WRITE_CMD",
            IioWrAlloc => "PM_IO_WR_ALLOC",
            IioWrFull => "PM_IO_WR_FULL",
            IioWrPart => "PM_IO_WR_PART",
            IioWrNonSnoop => "PM_IO_WR_NONSNOOP",
            IioRdCode => "PM_IO_RD_CODE",
            IioRdPart => "PM_IO_RD_PART",
            IioWrTotal => "PM_IO_WR_TOTAL",
            IioRdTotal => "PM_IO_RD_TOTAL",
            DiskReadOps => "GAUGE_DISK.RD_OPS",
            DiskWriteOps => "GAUGE_DISK.WR_OPS",
            DiskReadBytes => "GAUGE_DISK.RD_BYTES",
            DiskWriteBytes => "GAUGE_DISK.WR_BYTES",
            PowerWatts => "GAUGE_POWER.PKG_WATTS",
        },
    }
}

/// Counting placement: domain, core-counter mask, MSR requirement.
///
/// Encodes the paper's §4 examples of configuration-validity constraints:
/// `L1D_PEND_MISS.PENDING` may only be counted on core counter 3 on
/// Haswell/Broadwell-class parts, and offcore-response events consume one
/// of two auxiliary MSRs.
fn placement(arch: Arch, sem: Semantic) -> (Domain, u8, bool) {
    use Semantic::*;
    let full = 0b1111u8;
    match sem {
        Cycles | RefCycles | Instructions => (Domain::Fixed, 0, false),
        // Soft gauges never occupy a PMU register: the wildcard below
        // must not silently turn them into core events.
        DiskReadOps | DiskWriteOps | DiskReadBytes | DiskWriteBytes | PowerWatts => {
            (Domain::Gauge, 0, false)
        }
        DmaTransactions | ImcCasRd | ImcCasWr | IioWrAlloc | IioWrFull | IioWrPart
        | IioWrNonSnoop | IioRdCode | IioRdPart | IioWrTotal | IioRdTotal => {
            (Domain::Uncore, 0, false)
        }
        L1dPendMissPending => (Domain::Core, 0b1000, false),
        OroDrdAnyCycles | OroDrdBwCycles | OroDrdLatCycles => (Domain::Core, full, true),
        // Precise-distribution stall events occupy the upper counters on x86.
        StallsL2Pending | StallsL1dPending if arch == Arch::X86SkyLake => {
            (Domain::Core, 0b1100, false)
        }
        _ => (Domain::Core, full, false),
    }
}

/// Builds the invariant library for a catalog.
fn build_invariants(c: &Catalog) -> Vec<Invariant> {
    use Semantic::*;
    let p = c.params().clone();
    let w = p.issue_width;
    let k = Expr::konst;
    let mut invs = vec![
        // Top-down slot conservation: every issue slot is either used, lost
        // to the frontend, lost to mis-speculation recovery, or lost to a
        // backend stall.
        Invariant::new(
            "top_down_slots",
            c.ex(IdqUopsNotDelivered)
                + c.ex(UopsIssued)
                + k(w) * c.ex(RecoveryCycles)
                + c.ex(BackendStallSlots),
            k(w) * c.ex(Cycles),
            0.01,
        ),
        // µop flow conservation across the pipeline.
        Invariant::new(
            "uop_flow",
            c.ex(UopsIssued),
            c.ex(UopsRetired) + c.ex(UopsBadSpec),
            0.01,
        ),
        // µops arrive from exactly one of the three decode paths.
        Invariant::new(
            "decode_paths",
            c.ex(IdqMiteUops) + c.ex(IdqDsbUops) + c.ex(IdqMsUops),
            c.ex(UopsIssued),
            0.01,
        ),
        // Recovery cycles are charged per squash event at documented costs.
        Invariant::new(
            "recovery_cost",
            c.ex(RecoveryCycles),
            k(p.recovery_per_branch_miss) * c.ex(BrMisp)
                + k(p.recovery_per_machine_clear) * c.ex(MachineClears),
            0.01,
        ),
        // Squashed µops per squash event (soft: wasted work varies).
        Invariant::new(
            "badspec_uops",
            c.ex(UopsBadSpec),
            k(p.badspec_uops_per_branch_miss) * c.ex(BrMisp)
                + k(p.badspec_uops_per_machine_clear) * c.ex(MachineClears),
            0.08,
        ),
        // µops per instruction is workload-dependent but tightly banded.
        Invariant::new(
            "uops_per_inst",
            c.ex(UopsRetired),
            k(p.uops_per_inst_nominal) * c.ex(Instructions),
            0.10,
        ),
        // L2 demand traffic is the sum of L1D and L1I misses.
        Invariant::new(
            "l2_demand",
            c.ex(L2References),
            c.ex(L1dMisses) + c.ex(IcacheMisses),
            0.01,
        ),
        // LLC sees exactly the L2 misses.
        Invariant::new("llc_flow", c.ex(LlcReferences), c.ex(L2Misses), 0.01),
        // LLC references split into hits and misses.
        Invariant::new(
            "llc_split",
            c.ex(LlcReferences),
            c.ex(LlcHits) + c.ex(LlcMisses),
            0.01,
        ),
        // DRAM CAS commands serve LLC misses, writebacks and device DMA
        // (footnote 1 of the paper: the bandwidth-composition invariant).
        Invariant::new(
            "dram_flow",
            c.ex(ImcCasRd) + c.ex(ImcCasWr),
            c.ex(LlcMisses) + c.ex(LlcWritebacks) + c.ex(DmaTransactions),
            0.01,
        ),
        // Memory stalls split by deepest outstanding miss level.
        Invariant::new(
            "mem_stall_split",
            c.ex(StallsMemAny),
            c.ex(StallsL2Pending) + c.ex(StallsL1dPending),
            0.01,
        ),
        // Total stalls split into memory-bound and other.
        Invariant::new(
            "total_stall_split",
            c.ex(StallsTotal),
            c.ex(StallsMemAny) + c.ex(StallsOther),
            0.01,
        ),
        // Outstanding-demand-read cycles split into bandwidth-bound and
        // latency-bound (the DRAM-stall decomposition of §4).
        Invariant::new(
            "oro_split",
            c.ex(OroDrdAnyCycles),
            c.ex(OroDrdBwCycles) + c.ex(OroDrdLatCycles),
            0.01,
        ),
        // IIO write/read totals are sums of their flavors.
        Invariant::new(
            "iio_wr_total",
            c.ex(IioWrTotal),
            c.ex(IioWrAlloc) + c.ex(IioWrFull) + c.ex(IioWrPart) + c.ex(IioWrNonSnoop),
            0.01,
        ),
        Invariant::new(
            "iio_rd_total",
            c.ex(IioRdTotal),
            c.ex(IioRdCode) + c.ex(IioRdPart),
            0.01,
        ),
        // Every IIO request is a DMA transaction.
        Invariant::new(
            "dma_io",
            c.ex(DmaTransactions),
            c.ex(IioWrTotal) + c.ex(IioRdTotal),
            0.01,
        ),
        // Little's law on L1D miss occupancy (soft: latency varies).
        Invariant::new(
            "l1d_pending_occupancy",
            c.ex(L1dPendMissPending),
            k(p.l1d_miss_latency) * c.ex(L1dMisses),
            0.12,
        ),
        // Mispredicted branches are a subset of branches; expressed as a
        // soft proportionality so it contributes a weak coupling factor.
        Invariant::new(
            "branch_misp_band",
            c.ex(BrMisp),
            k(0.03) * c.ex(BrInst),
            0.9,
        ),
        // -- Soft cross-cluster couplings. These encode the top-down
        // methodology's occupancy relations (Yasin); they are workload
        // dependent, hence wide, but they connect the pipeline, stall,
        // cache, DRAM-occupancy, and TLB event groups into one factor
        // graph — required for transitive inference across any schedule.
        Invariant::new(
            "stall_cycle_band",
            c.ex(StallsTotal),
            k(0.30) * c.ex(Cycles),
            0.9,
        ),
        Invariant::new(
            "dram_stall_occupancy",
            c.ex(StallsL2Pending),
            k(0.5) * c.ex(OroDrdAnyCycles),
            0.8,
        ),
        Invariant::new(
            "l1d_stall_occupancy",
            c.ex(StallsL1dPending),
            k(0.1) * c.ex(L1dPendMissPending),
            0.8,
        ),
        Invariant::new(
            "dtlb_l1d_band",
            c.ex(DtlbMisses),
            k(0.045) * c.ex(L1dMisses),
            0.9,
        ),
        Invariant::new(
            "itlb_icache_band",
            c.ex(ItlbMisses),
            k(0.1) * c.ex(IcacheMisses),
            0.9,
        ),
    ];
    if let Some(r) = p.ref_cycle_ratio {
        invs.push(Invariant::new(
            "ref_cycles",
            c.ex(RefCycles),
            k(r) * c.ex(Cycles),
            0.01,
        ));
    }
    invs
}

/// Builds the ten derived events the evaluation measures (Fig. 6).
fn build_derived(c: &Catalog) -> Vec<DerivedEvent> {
    use Semantic::*;
    let w = c.params().issue_width;
    let k = Expr::konst;
    let slots = k(w) * c.ex(Cycles);
    vec![
        DerivedEvent::new(
            "CPI",
            "cycles per retired instruction",
            c.ex(Cycles) / c.ex(Instructions),
        ),
        DerivedEvent::new(
            "Branch_Mispredict_Ratio",
            "mispredicted branches per branch",
            c.ex(BrMisp) / c.ex(BrInst),
        ),
        DerivedEvent::new(
            "L1D_MPKI",
            "L1D misses per kilo-instruction",
            k(1000.0) * c.ex(L1dMisses) / c.ex(Instructions),
        ),
        DerivedEvent::new(
            "LLC_MPKI",
            "LLC misses per kilo-instruction",
            k(1000.0) * c.ex(LlcMisses) / c.ex(Instructions),
        ),
        DerivedEvent::new(
            "Frontend_Bound",
            "fraction of issue slots starved by the frontend",
            c.ex(IdqUopsNotDelivered) / slots.clone(),
        ),
        DerivedEvent::new(
            "Bad_Speculation",
            "fraction of issue slots wasted on squashed work",
            (c.ex(UopsIssued) - c.ex(UopsRetired) + k(w) * c.ex(RecoveryCycles)) / slots.clone(),
        ),
        DerivedEvent::new(
            "Retiring",
            "fraction of issue slots doing useful work",
            c.ex(UopsRetired) / slots,
        ),
        DerivedEvent::new(
            "Memory_Bound",
            "fraction of cycles stalled on memory, weighted by L3-miss share \
             ((1 - L3 hit fraction) × L2-pending stalls / clocks, §4)",
            (k(1.0) - c.ex(LlcHits) / c.ex(LlcReferences)) * c.ex(StallsL2Pending) / c.ex(Cycles),
        ),
        DerivedEvent::new(
            "DRAM_Latency_Bound",
            "fraction of cycles latency-bound on DRAM demand reads",
            (c.ex(OroDrdAnyCycles) - c.ex(OroDrdBwCycles)) / c.ex(Cycles),
        ),
        DerivedEvent::new(
            "DRAM_Bandwidth",
            "bytes of DRAM traffic per cycle (CAS commands × line size / clocks)",
            k(c.params().cacheline_bytes) * (c.ex(ImcCasRd) + c.ex(ImcCasWr)) / c.ex(Cycles),
        ),
    ]
}

/// Cross-source invariants of the extended observation plane: factors
/// that couple gauge readings to PMU counters in the same graph, so a
/// miscounting source is caught by the *other* plane (the Röhl-style
/// validation argument). All expressions are homogeneous (degree-1, no
/// additive constants), keeping them valid in both per-mega-cycle rate
/// units and per-window count units.
fn build_cross_source_invariants(c: &Catalog) -> Vec<Invariant> {
    use Semantic::*;
    let k = Expr::konst;
    vec![
        // Block-layer bytes are the device DMA traffic the uncore IIO
        // counters see, cache-line sized (device reads ⇒ disk writes to
        // memory and vice versa cancel out in the aggregate).
        Invariant::new(
            "disk_dma_bytes",
            c.ex(DiskReadBytes) + c.ex(DiskWriteBytes),
            k(c.params().cacheline_bytes) * (c.ex(IioRdTotal) + c.ex(IioWrTotal)),
            0.01,
        ),
        // Bytes and completed operations agree at the nominal request
        // size (one 4 KiB page per IOP).
        Invariant::new(
            "disk_io_size",
            c.ex(DiskReadBytes) + c.ex(DiskWriteBytes),
            k(crate::synth::DISK_IO_BYTES_PER_OP) * (c.ex(DiskReadOps) + c.ex(DiskWriteOps)),
            0.01,
        ),
        // Package power tracks activity: a static leakage term per cycle
        // plus a dynamic term per issued µop. Soft — the real coefficient
        // is workload and DVFS dependent — but tight enough to catch a
        // power gauge (or a cycle counter) reading nonsense.
        Invariant::new(
            "power_activity",
            c.ex(PowerWatts),
            k(crate::synth::POWER_STATIC_W_PER_CYCLE) * c.ex(Cycles)
                + k(crate::synth::POWER_DYN_W_PER_UOP) * c.ex(UopsIssued),
            0.05,
        ),
    ]
}

/// Cross-source derived events: metrics no single source can answer.
fn build_cross_source_derived(c: &Catalog) -> Vec<DerivedEvent> {
    use Semantic::*;
    vec![
        DerivedEvent::new(
            "Bytes_per_IOP",
            "mean I/O request size: disk bytes moved per completed operation",
            (c.ex(DiskReadBytes) + c.ex(DiskWriteBytes)) / (c.ex(DiskReadOps) + c.ex(DiskWriteOps)),
        ),
        DerivedEvent::new(
            "IPC_per_Watt",
            "instructions per cycle per package watt (PMU ÷ power gauge)",
            c.ex(Instructions) / c.ex(Cycles) / c.ex(PowerWatts),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_build_for_both_arches() {
        let x86 = Catalog::new(Arch::X86SkyLake);
        let ppc = Catalog::new(Arch::Ppc64Power9);
        assert_eq!(x86.len(), 45);
        assert_eq!(ppc.len(), 44); // no RefCycles
        assert!(x86.id(Semantic::RefCycles).is_some());
        assert!(ppc.id(Semantic::RefCycles).is_none());
    }

    #[test]
    fn event_names_are_unique() {
        for arch in Arch::all() {
            for cat in [Catalog::new(arch), Catalog::with_observation_plane(arch)] {
                let names: std::collections::HashSet<&str> =
                    cat.iter().map(|ev| ev.name.as_str()).collect();
                assert_eq!(names.len(), cat.len(), "{arch}");
            }
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let cat = Catalog::new(Arch::Ppc64Power9);
        for (i, ev) in cat.iter().enumerate() {
            assert_eq!(ev.id.index(), i);
        }
    }

    #[test]
    fn pinned_event_constraint_present() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let pend = cat.require(Semantic::L1dPendMissPending);
        assert_eq!(cat.event(pend).counter_mask, 0b1000);
        assert_eq!(cat.event(pend).core_counter_choices(), 1);
    }

    #[test]
    fn offcore_events_need_msr() {
        let cat = Catalog::new(Arch::X86SkyLake);
        for sem in [
            Semantic::OroDrdAnyCycles,
            Semantic::OroDrdBwCycles,
            Semantic::OroDrdLatCycles,
        ] {
            assert!(cat.event(cat.require(sem)).needs_msr);
        }
    }

    #[test]
    fn ten_derived_events_per_arch() {
        for arch in Arch::all() {
            let cat = Catalog::new(arch);
            assert_eq!(cat.derived_events().len(), 10);
        }
    }

    #[test]
    fn derived_events_cover_many_unique_hpcs() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let mut unique = std::collections::BTreeSet::new();
        for d in cat.derived_events() {
            unique.extend(d.events());
        }
        // The paper's ten metrics need ~29 unique HPCs; our model needs 15+.
        assert!(unique.len() >= 15, "only {} unique events", unique.len());
    }

    #[test]
    fn invariants_reference_known_events() {
        for arch in Arch::all() {
            let cat = Catalog::new(arch);
            for inv in cat.invariants() {
                for id in inv.events() {
                    assert!(id.index() < cat.len(), "{} out of range", inv.name);
                }
            }
            assert!(cat.invariants().len() >= 17);
        }
    }

    #[test]
    fn invariants_of_finds_memberships() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let llc_miss = cat.require(Semantic::LlcMisses);
        let names: Vec<_> = cat
            .invariants_of(llc_miss)
            .iter()
            .map(|i| i.name.as_str())
            .collect();
        assert!(names.contains(&"llc_split"));
        assert!(names.contains(&"dram_flow"));
    }

    #[test]
    fn nominal_scales_are_positive() {
        let cat = Catalog::new(Arch::X86SkyLake);
        for ev in cat.iter() {
            assert!(cat.nominal_scale(ev.id) >= 1.0, "{}", ev.name);
        }
    }

    #[test]
    fn base_catalog_has_only_the_pmu_source() {
        let cat = Catalog::new(Arch::X86SkyLake);
        assert_eq!(cat.sources().len(), 1);
        assert_eq!(cat.sources()[0].id, crate::SourceId::PMU);
        for ev in cat.iter() {
            assert_eq!(cat.source_of(ev.id), crate::SourceId::PMU);
        }
    }

    #[test]
    fn observation_plane_extends_the_base_catalog_as_a_prefix() {
        for arch in Arch::all() {
            let base = Catalog::new(arch);
            let ext = Catalog::with_observation_plane(arch);
            assert!(ext.sources().len() > 1);
            assert_eq!(ext.len(), base.len() + Semantic::gauges().len());
            // PMU events, invariants, and derived events are a strict
            // prefix: ids and names are unchanged.
            for ev in base.iter() {
                let e = ext.event(ev.id);
                assert_eq!(e.name, ev.name);
                assert_eq!(e.semantic, ev.semantic);
                assert_eq!(e.domain, ev.domain);
            }
            assert!(ext.invariants().len() > base.invariants().len());
            assert_eq!(ext.derived_events().len(), base.derived_events().len() + 2);
            // Gauge events carry the Gauge domain and never enter the
            // programmable pool.
            for &sem in Semantic::gauges() {
                let id = ext.require(sem);
                assert_eq!(ext.event(id).domain, Domain::Gauge);
                assert!(!ext.programmable_events().contains(&id));
                assert_ne!(ext.source_of(id), crate::SourceId::PMU);
            }
            // Dense ids survive the extension.
            for (i, ev) in ext.iter().enumerate() {
                assert_eq!(ev.id.index(), i);
            }
        }
    }

    #[test]
    fn gauge_sources_have_distinct_cadences_and_own_their_events() {
        let ext = Catalog::with_observation_plane(Arch::X86SkyLake);
        assert_eq!(ext.sources().len(), 4); // pmu + disk-ops + disk-bytes + power
        let mut cadences = std::collections::BTreeSet::new();
        for (i, s) in ext.sources().iter().enumerate() {
            assert_eq!(s.id.index(), i, "source ids are dense");
            cadences.insert(s.cadence);
            for ev in ext.events_of_source(s.id) {
                assert_eq!(ext.source_of(ev), s.id);
            }
        }
        assert_eq!(cadences.len(), 4, "every source runs at its own cadence");
        assert!(ext.source(crate::SourceId::from_raw(99)).is_none());
        // Every gauge event belongs to exactly one registered source.
        let owned: usize = ext
            .sources()
            .iter()
            .skip(1)
            .map(|s| ext.events_of_source(s.id).len())
            .sum();
        assert_eq!(owned, Semantic::gauges().len());
    }

    #[test]
    fn cross_source_invariants_and_derived_are_registered() {
        let ext = Catalog::with_observation_plane(Arch::X86SkyLake);
        let names: Vec<_> = ext.invariants().iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"disk_dma_bytes"));
        assert!(names.contains(&"disk_io_size"));
        assert!(names.contains(&"power_activity"));
        let derived: Vec<_> = ext
            .derived_events()
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert!(derived.contains(&"Bytes_per_IOP"));
        assert!(derived.contains(&"IPC_per_Watt"));
        // Cross-source invariants genuinely span sources.
        let disk_dma = ext
            .invariants()
            .iter()
            .find(|i| i.name == "disk_dma_bytes")
            .unwrap();
        let spanned: std::collections::BTreeSet<_> = disk_dma
            .events()
            .iter()
            .map(|&e| ext.source_of(e))
            .collect();
        assert!(spanned.len() >= 2, "invariant must couple distinct sources");
    }
}
