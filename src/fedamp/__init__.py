"""Federated averaging with amplified updates: simulator and diagnostics."""

from .objectives import (LogisticPopulation, NoiseModel, QuadraticPopulation,
                         build_logistic, build_quadratic)
from .participation import (PatternSpec, SimplexReport, WeightSchedule,
                            WindowStats, generate_schedule, load_schedule_csv,
                            rho_bound, verify_simplex, window_averages)
from .engine import (RunConfig, Trace, amplify, checkpoint_eval, run,
                     run_wait_baseline)
from .analysis import (BoundCheck, DivergenceReport, LRPlan, MixingReport,
                       SlopeFit, ball_samples, chebyshev_mixing_check,
                       choose_amplification_interval, divergence_at_offsets,
                       divergence_exact, fit_convergence_slope,
                       hoeffding_check, hoeffding_threshold, plan_rates_adaptive,
                       plan_rates_fixed_amp, sample_offsets)
from .config import (ConfigError, ExperimentConfig, load_config,
                     parse_config_text)
from .svg import ChartError, line_chart
from .streams import derive_seed, substream

__version__ = "0.1.0"
