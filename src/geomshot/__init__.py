"""Similarity-invariant hand-angle features and few-shot prototype classification."""

__version__ = "0.1.0"

from .geometry import (
    FeatureVector,
    SimilarityTransform,
    apply_transform,
    featurize,
    joint_angles,
    random_transform,
)

__all__ = [
    "FeatureVector",
    "SimilarityTransform",
    "apply_transform",
    "featurize",
    "joint_angles",
    "random_transform",
    "__version__",
]
