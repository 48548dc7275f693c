"""Export helpers for I/O-IMCs (Graphviz dot and plain-text listings).

These helpers are not needed for any numerical result; they exist so that the
building-block models of the paper's Figures 1-9 can be inspected and
compared against the paper by eye.
"""

from __future__ import annotations

from .actions import ActionKind
from .ioimc import IOIMC


def to_dot(automaton: IOIMC) -> str:
    """Render an I/O-IMC in Graphviz dot syntax.

    Markovian transitions are drawn dashed, interactive transitions solid,
    following the drawing convention of the paper (Figure 1).
    """
    lines = [f'digraph "{automaton.name}" {{', "  rankdir=LR;"]
    lines.append('  __init [shape=point, label=""];')
    lines.append(f"  __init -> s{automaton.initial};")
    for state in automaton.states():
        labels = automaton.label_of(state)
        label = automaton.state_name(state)
        if labels:
            label += "\\n{" + ",".join(sorted(labels)) + "}"
        lines.append(f'  s{state} [shape=circle, label="{label}"];')
    for transition in automaton.iter_interactive():
        kind = automaton.kind_of(transition.action)
        decorated = kind.decorate(transition.action)
        lines.append(
            f'  s{transition.source} -> s{transition.target} [label="{decorated}"];'
        )
    for transition in automaton.iter_markovian():
        lines.append(
            f"  s{transition.source} -> s{transition.target} "
            f'[label="{transition.rate:g}", style=dashed];'
        )
    lines.append("}")
    return "\n".join(lines)


def to_text(automaton: IOIMC, *, include_input_self_loops: bool = False) -> str:
    """Plain text listing of the automaton (one transition per line)."""
    lines = [
        f"I/O-IMC {automaton.name}",
        f"  states: {automaton.num_states}, initial: {automaton.state_name(automaton.initial)}",
        f"  inputs:    {sorted(automaton.signature.inputs)}",
        f"  outputs:   {sorted(automaton.signature.outputs)}",
        f"  internals: {sorted(automaton.signature.internals)}",
    ]
    # The row tables are views rebuilt on each access: read each once.
    interactive = automaton.interactive
    markovian = automaton.markovian
    for state in automaton.states():
        labels = automaton.label_of(state)
        suffix = f"  {{{', '.join(sorted(labels))}}}" if labels else ""
        lines.append(f"  state {automaton.state_name(state)}{suffix}")
        for action, target in interactive[state]:
            kind = automaton.kind_of(action)
            if (
                not include_input_self_loops
                and kind is ActionKind.INPUT
                and target == state
            ):
                continue
            lines.append(
                f"    --{kind.decorate(action)}--> {automaton.state_name(target)}"
            )
        for rate, target in markovian[state]:
            lines.append(f"    --rate {rate:g}--> {automaton.state_name(target)}")
    return "\n".join(lines)


__all__ = ["to_dot", "to_text"]
