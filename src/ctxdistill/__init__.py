"""ctxdistill: distill issue-resolution code contexts to minimal
sufficient subsets and compress contexts under a token budget."""

__version__ = "0.1.0"
