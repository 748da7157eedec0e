"""Walk layer: state, sampling, specs, algorithms, reference walker."""

from .algorithms import deepwalk_corpus, personalized_pagerank
from .reference import reference_walks, visit_counts
from .sampling import (
    AliasSampler,
    its_search_steps,
    make_sampler,
    uniform_next,
)
from .spec import WalkSpec, start_vertices
from .state import WalkSet

__all__ = [
    "deepwalk_corpus",
    "personalized_pagerank",
    "reference_walks",
    "visit_counts",
    "AliasSampler",
    "its_search_steps",
    "make_sampler",
    "uniform_next",
    "WalkSpec",
    "start_vertices",
    "WalkSet",
]
