"""Physical and architectural constants for the ASMCap reproduction.

Two kinds of constants live here:

1. **Paper-specified parameters** — values the paper states explicitly
   (array geometry, supply voltage, variation coefficients, the HDAC and
   TASR hyper-parameters).  These feed the behavioural models; changing
   them changes model *outputs*.

2. **Table-I calibration constants** — measured silicon numbers (cell
   area, search time, average power) that our behavioural circuit model
   cannot derive from first principles without a transistor-level
   simulator.  They anchor the absolute scale of the latency/energy/area
   models; every *ratio* the experiments report is still produced by the
   models, not hard-coded.

One simulator setting lives here too: :data:`CHUNK_ELEMS`, the working-set
budget every chunked kernel and the micro-batch autotuner share.

Sources are cited next to each value (section / table of the paper).
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Supply / technology (Section V-A, Table I)
# --------------------------------------------------------------------------

VDD_VOLTS = 1.2
"""Supply and search voltage for both EDAM and ASMCap (Table I)."""

TECHNOLOGY_NM = 65
"""CMOS technology node used by both designs (Table I)."""

MIM_CAPACITOR_FARADS = 2e-15
"""2 fF MIM capacitor per ASMCap cell (Section V-A)."""

MIM_CAPACITOR_AREA_UM2 = 1.4
"""Area of a 65 nm 2 fF MIM capacitor; placed on top of the cell so it
adds no footprint (Section V-C)."""

# --------------------------------------------------------------------------
# Array geometry (Section V-A)
# --------------------------------------------------------------------------

ARRAY_ROWS = 256
"""M: reference segments per array."""

ARRAY_COLS = 256
"""N: bases per row == read length processed without fragmentation."""

ARRAY_COUNT = 512
"""Number of arrays in the evaluated system (64 Mb total capacity)."""

READ_LENGTH = 256
"""Read length used throughout the evaluation (Section V-A)."""

# --------------------------------------------------------------------------
# Variation models (Section V-D)
# --------------------------------------------------------------------------

ASMCAP_CAPACITOR_SIGMA = 0.014
"""Relative capacitor variation sigma_C/mu_C = 1.4 % (Section V-D)."""

EDAM_CURRENT_SIGMA = 0.025
"""Relative per-cell discharge-current variation 2.5 % (Section V-D)."""

SIGMA_SEPARATION = 3.0
"""The paper's '3-sigma constraint': adjacent V_ML levels must be at
least 3 sigma away from the decision boundary on each side (so adjacent
level means are >= 6 sigma apart)."""

ASMCAP_DISTINGUISHABLE_STATES = 566
"""Distinguishable V_ML states for ASMCap quoted in Section V-D."""

EDAM_DISTINGUISHABLE_STATES = 44
"""Distinguishable V_ML states for EDAM quoted in Section V-D."""

# --------------------------------------------------------------------------
# HDAC / TASR hyper-parameters (Section V-A)
# --------------------------------------------------------------------------

HDAC_ALPHA = 200.0
"""alpha in p = es/(es+eid) * exp(-(alpha*eid + beta*T))."""

HDAC_BETA = 0.5
"""beta in the HDAC probability function."""

HDAC_DISABLE_THRESHOLD = 0.01
"""HDAC is skipped (saving its extra cycle) when p < 1 % (Section IV-A)."""

TASR_NR = 2
"""Number of rotations per direction in TASR (Section V-A)."""

TASR_GAMMA = 2e-4
"""gamma in Tl = ceil(gamma / eid * m) (Section IV-B)."""

# --------------------------------------------------------------------------
# Error-injection conditions (Section V-A)
# --------------------------------------------------------------------------

CONDITION_A = {"substitution": 0.01, "insertion": 0.0005, "deletion": 0.0005}
"""Condition A: es = 1 %, ei = ed = 0.05 % (substitution dominant)."""

CONDITION_B = {"substitution": 0.001, "insertion": 0.005, "deletion": 0.005}
"""Condition B: es = 0.1 %, ei = ed = 0.5 % (indel dominant)."""

CONDITION_A_THRESHOLDS = tuple(range(1, 9))
"""Thresholds swept in Fig. 7 for Condition A."""

CONDITION_B_THRESHOLDS = tuple(range(2, 17, 2))
"""Thresholds swept in Fig. 7 for Condition B."""

# --------------------------------------------------------------------------
# Table I calibration (measured silicon values)
# --------------------------------------------------------------------------

ASMCAP_CELL_AREA_UM2 = 24.0
EDAM_CELL_AREA_UM2 = 33.4

ASMCAP_SEARCH_TIME_NS = 0.9
EDAM_SEARCH_TIME_NS = 2.4

ASMCAP_CELL_POWER_UW = 0.12
EDAM_CELL_POWER_UW = 1.0

# --------------------------------------------------------------------------
# Section V-B breakdown anchors (256x256 array)
# --------------------------------------------------------------------------

ARRAY_AREA_MM2 = 1.58
ARRAY_POWER_MW = 7.67

POWER_FRACTION_CELLS = 0.75
POWER_FRACTION_SHIFT_REGISTERS = 0.19
POWER_FRACTION_SENSE_AMPS = 0.06

# --------------------------------------------------------------------------
# Derived circuit-energy calibration
# --------------------------------------------------------------------------
# The charge-domain search energy follows Eq. (1) exactly (it is physics:
# capacitive charging).  The current-domain (EDAM) energy is modelled as
# matchline pre-charge plus per-mismatch discharge; the two constants
# below are calibrated so that, at the typical genome ED* mismatch
# fraction, the EDAM/ASMCap energy-per-search ratio matches the Table-I
# anchor (power ratio 8.5x at a 2.4/0.9 ns time ratio -> ~22x energy).

TYPICAL_ED_STAR_MISMATCH_FRACTION = 0.42
"""Expected ED* mismatch fraction for an unrelated DNA row: a stored
base matches any of the three searched bases with p = 1 - (3/4)^3 =
0.578, so ~42 % of cells mismatch."""

EDAM_ML_PRECHARGE_CAP_F = 1.85e-12
"""Modelled matchline pre-charge capacitance per EDAM row (~7 fF/cell)."""

EDAM_DISCHARGE_ENERGY_PER_MISMATCH_J = 24.7e-15
"""Modelled discharge energy per mismatched EDAM cell per search."""

EDAM_PRECHARGE_TIME_NS = 0.8
"""Matchline pre-charge phase EDAM needs before every search (skipped
by the charge-domain array, Section III-B)."""

SA_ENERGY_PER_ROW_J = 14.4e-15
"""Sense-amplifier energy per row decision (calibrated so SAs take ~6 %
of array power, Section V-B)."""

SHIFT_REGISTER_ENERGY_PER_SEARCH_J = 11.6e-12
"""Shift-register bank energy per search (load/rotate the read;
calibrated to the ~19 % power share of Section V-B)."""

# --------------------------------------------------------------------------
# Baseline cost-model constants (Section V-E, Fig. 8)
# --------------------------------------------------------------------------
# Physically grounded per-operation constants for the comparator systems.
# Each is a plausible number for the technology in question, chosen so the
# resulting system-level ratios land near the paper's Fig. 8 anchors (the
# FIG8_* dicts below); the *models* scale with workload size.

CM_CPU_CELL_UPDATES_PER_SECOND = 8.0e7
"""DP cell-update throughput of the i9-10980XE CM-CPU baseline
(scalar, branchy O(n*m) comparison-matrix code)."""

CM_CPU_POWER_W = 165.0
"""i9-10980XE package power under sustained load."""

RESMA_WAVEFRONT_NS = 5.4
"""ReSMA RRAM-crossbar cycle per CM anti-diagonal wavefront."""

RESMA_CELL_UPDATE_ENERGY_J = 10e-9
"""ReSMA energy per CM cell update.  Dominated by RRAM write-verify for
the intermediate values — the 'massive intermediate data and frequent
crossbar updates' the paper blames for ReSMA's energy (Section II-B)."""

RESMA_FILTER_ENERGY_J = 50e-9
"""ReSMA per-read RRAM-CAM filtering energy."""

RESMA_FILTER_NS = 30.0
"""ReSMA per-read filtering latency."""

SAVI_KMER_LENGTH = 16
"""Seed length used by the SaVI seed-and-vote baseline."""

SAVI_TCAM_SEARCH_NS = 60.0
"""SaVI TCAM search latency per k-mer (search + priority encode)."""

SAVI_TCAM_SEARCH_ENERGY_J = 4.6e-6
"""SaVI TCAM energy per k-mer search over the 64 Mb reference (TCAM
matchline power is the technology's known weakness)."""

SAVI_VOTE_NS = 10.0
"""SaVI voting latency per read."""

SAVI_VOTE_ENERGY_J = 20e-9
"""SaVI voting energy per read."""

SAVI_ACCURACY = 0.938
"""Average seed-and-vote accuracy the paper quotes for SaVI [11]."""

# --------------------------------------------------------------------------
# Simulator working-set budget
# --------------------------------------------------------------------------

CHUNK_ELEMS = 1 << 23
"""Target element count of one chunked comparison/encoding block (~8 MB
of boolean planes): the batched ED* kernels, the count kernel and the
streaming micro-batch plan all bound their working set by it.  Not a
paper parameter; changing it changes no model output."""

# --------------------------------------------------------------------------
# Fig. 8 anchors (paper-reported ratios, used for verification only)
# --------------------------------------------------------------------------

FIG8_SPEEDUP_NO_STRATEGY = {
    "cm_cpu": 9.7e4,
    "resma": 362.0,
    "savi": 126.0,
    "edam": 2.8,
}

FIG8_ENERGY_EFF_NO_STRATEGY = {
    "cm_cpu": 5.1e6,
    "resma": 2.3e4,
    "savi": 2.4e3,
    "edam": 28.0,
}

FIG8_SPEEDUP_WITH_STRATEGY = {
    "cm_cpu": 4.7e4,
    "resma": 174.0,
    "savi": 61.0,
    "edam": 1.4,
}

FIG8_ENERGY_EFF_WITH_STRATEGY = {
    "cm_cpu": 2.0e6,
    "resma": 8.7e3,
    "savi": 943.0,
    "edam": 10.8,
}
