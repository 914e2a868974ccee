"""Millimeter-wave beam tracking with learned angle prediction.

Layout:
    arrays       array geometry, steering vectors, codebooks
    measurement  pilot sounding model, closed-form response and Jacobian
    mobility     angle trajectories and inertial sensor synthesis
    neural       dense/LSTM layers, backprop, Adam
    predictor    windowed angle predictor: dataset, training, checkpoints
    filtering    unscented prediction and Kalman measurement updates
    beamctl      pilot beam selection from the tracked belief
    trackers     per-cycle tracker loops (proposed, EKF, LMS, genie)
    harness      episode simulation, metrics, seeded sweeps
    cli          command line front end
"""

from .arrays import (
    ArrayGeometry,
    Codebook,
    PathState,
    assemble_channel,
    make_codebook,
    steering_vector,
)
from .beamctl import BeamSelection, crlb_objective, nearest_beams, select_sounding
from .filtering import (
    GaussianBelief,
    kalman_update,
    measurement_update,
    prediction_update,
    sigma_points,
)
from .harness import (
    EpisodeResult,
    SimConfig,
    calibrate_estimate_noise,
    normalized_mse,
    qfunc,
    run_episode,
    run_episodes,
    run_sweep,
)
from .measurement import (
    PilotVector,
    SoundingConfig,
    measurement_jacobian,
    predicted_measurement,
    receive,
    sounding_matrices,
)
from .mobility import MobilityParams, Trajectory, generate_trajectory, synthesize_imu
from .predictor import (
    Dataset,
    DatasetConfig,
    NoiseTable,
    PredictorModel,
    TrainConfig,
    build_model,
    generate_dataset,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .trackers import (
    EkfTracker,
    GenieTracker,
    LmsTracker,
    PilotChannel,
    ProposedTracker,
    calibrate_process_noise,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry", "Codebook", "PathState", "assemble_channel", "make_codebook",
    "steering_vector", "BeamSelection", "crlb_objective", "nearest_beams",
    "select_sounding", "GaussianBelief", "kalman_update", "measurement_update",
    "prediction_update", "sigma_points", "EpisodeResult", "SimConfig",
    "calibrate_estimate_noise", "normalized_mse", "qfunc", "run_episode",
    "run_episodes", "run_sweep", "PilotVector", "SoundingConfig", "measurement_jacobian",
    "predicted_measurement", "receive",
    "sounding_matrices", "MobilityParams", "Trajectory", "generate_trajectory",
    "synthesize_imu", "Dataset", "DatasetConfig", "NoiseTable", "PredictorModel",
    "TrainConfig", "build_model", "generate_dataset", "load_checkpoint",
    "save_checkpoint", "train", "EkfTracker", "GenieTracker", "LmsTracker",
    "PilotChannel", "ProposedTracker", "calibrate_process_noise",
]
