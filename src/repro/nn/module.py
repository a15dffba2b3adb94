"""Module system: parameter registration, traversal, and (de)serialization.

Mirrors the slice of ``torch.nn.Module`` the PIM-DL converter relies on:
recursive parameter collection, named-module traversal (used to locate the
linear layers to replace with LUTs), and train/eval mode switching.

An eval-mode *root* call — one made while no other module call runs on
the same thread — runs its forward under :func:`~repro.autograd.no_grad`,
so inference records no autograd tape.  Nested calls inherit the mode of
their root: an eval-mode submodule inside a training forward still passes
gradients.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autograd import Tensor, is_grad_enabled, no_grad


class _CallState(threading.local):
    """Per-thread: is a module call already running on this thread?"""

    active = False


_CALL_STATE = _CallState()


class Module:
    """Base class for all network components."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable parameters, depth-first, without duplicates."""
        seen: set = set()
        out: List[Tensor] = []
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def replace_module(self, qualified_name: str, new: "Module") -> None:
        """Replace the submodule at ``qualified_name`` (dot path) with ``new``.

        This is the hook the LUT-NN converter uses to swap ``Linear`` layers
        for ``LUTLinear`` layers in place.
        """
        parts = qualified_name.split(".")
        parent = self
        for part in parts[:-1]:
            if part not in parent._modules:
                raise KeyError(f"no submodule {part!r} in path {qualified_name!r}")
            parent = parent._modules[part]
        leaf = parts[-1]
        if leaf not in parent._modules:
            raise KeyError(f"no submodule {leaf!r} in path {qualified_name!r}")
        parent.register_module(leaf, new)

    # ------------------------------------------------------------------
    # Modes and state
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for m in self.children():
            m.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for m in self.children():
            m.eval()
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            if state[name].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{state[name].shape} vs {param.data.shape}"
                )
            param.data = state[name].copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        state = _CALL_STATE
        if state.active:
            return self.forward(*args, **kwargs)
        state.active = True
        try:
            if self.training or not is_grad_enabled():
                return self.forward(*args, **kwargs)
            with no_grad():
                return self.forward(*args, **kwargs)
        finally:
            state.active = False


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = str(i)
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x):
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]


class ModuleList(Module):
    """Indexable list of submodules (e.g. transformer encoder layers)."""

    def __init__(self, modules=()):
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]
