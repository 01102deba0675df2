"""Fine-tuning utilities: the pretrain -> downstream hinge.

Implements the paper's recipe (Sec. 4.2): transplant the pretrained
encoder into a fresh task with ``Task.load_encoder_state`` (heads stay
randomly initialized) and scale the base learning rate down by 10x to
mitigate catastrophic forgetting.
"""

from __future__ import annotations

#: The paper's fine-tuning learning-rate divisor.
FINETUNE_LR_DIVISOR = 10.0


def finetune_lr(base_lr: float, divisor: float = FINETUNE_LR_DIVISOR) -> float:
    """Scaled-down fine-tuning learning rate (eta_base / 10)."""
    if divisor <= 0:
        raise ValueError("divisor must be positive")
    return base_lr / divisor
