"""driftclust: joint mini-batch k-means clustering and representation
learning with feature drift compensation."""

from .backbone import BACKBONE_KINDS, BackboneSpec, build_backbone
from .clustering import CentroidBank, assign_batch, lloyd_kmeans, seed_kmeanspp, update_centroid
from .dataio import (Dataset, TrainerState, gen_blobs, load_checkpoint, load_csv,
                     load_idx, load_labels, save_checkpoint, save_labels)
from .head import FeatureHead, init_head
from .metrics import nmi
from .tensor import ConfigError, DimensionError, SeededRng
from .trainer import DivergenceError, JointTrainer, RunResult, TrainerConfig

__version__ = "0.1.0"
