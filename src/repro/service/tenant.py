"""Per-tenant accounting for the multi-tenant query service.

A :class:`Tenant` is one customer of the service: a fair-share weight,
an optional admission budget, and live counters — the U its queries have
consumed (maintained by the scheduler's slice accounting), the predicted
cost of its currently admitted queries (maintained by the service's
admit/retire bookkeeping), and outcome tallies.

The registry is deliberately permissive: tenants spring into existence
on first reference with the configured defaults, so a caller never has
to pre-register before submitting.  Explicit registration
(:meth:`TenantRegistry.register`) sets weight and budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import ProgressError

#: Fair-share weight of tenants never explicitly registered.
DEFAULT_TENANT_WEIGHT = 1.0


@dataclass
class Tenant:
    """One tenant's fair-share weight, budget, and live accounting."""

    name: str
    #: Fair-share weight: under the ``weighted_fair`` policy, backlogged
    #: tenants converge to U shares proportional to their weights.
    weight: float = DEFAULT_TENANT_WEIGHT
    #: Admission budget: max summed *predicted* cost (U pages) of this
    #: tenant's concurrently admitted queries; ``None`` = unlimited.
    cost_budget_pages: Optional[float] = None

    #: Total U (pages) charged to this tenant's queries across all
    #: scheduler slices — the quantity fair-share converges on.
    consumed_pages: float = 0.0
    #: Summed predicted cost of admitted, not-yet-retired queries.
    inflight_cost_pages: float = 0.0
    #: Currently admitted, not-yet-retired query count.
    inflight: int = 0

    # Outcome tallies (queries, not policy checks).
    admitted: int = 0
    queued: int = 0
    rejected: int = 0
    shed: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ProgressError(
                f"tenant {self.name!r}: weight must be positive"
            )


@dataclass
class TenantRegistry:
    """Name -> :class:`Tenant`, auto-creating with configured defaults."""

    default_cost_budget_pages: Optional[float] = None
    _tenants: dict[str, Tenant] = field(default_factory=dict)

    def register(
        self,
        name: str,
        weight: Optional[float] = None,
        cost_budget_pages: Optional[float] = None,
    ) -> Tenant:
        """Create or update a tenant's weight/budget (counters survive)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = Tenant(
                name=name,
                weight=DEFAULT_TENANT_WEIGHT if weight is None else weight,
                cost_budget_pages=(
                    self.default_cost_budget_pages
                    if cost_budget_pages is None
                    else cost_budget_pages
                ),
            )
            self._tenants[name] = tenant
        else:
            if weight is not None:
                if weight <= 0:
                    raise ProgressError(
                        f"tenant {name!r}: weight must be positive"
                    )
                tenant.weight = weight
            if cost_budget_pages is not None:
                tenant.cost_budget_pages = cost_budget_pages
        return tenant

    def get(self, name: str) -> Tenant:
        """The tenant, auto-created with defaults on first reference."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = Tenant(
                name=name,
                cost_budget_pages=self.default_cost_budget_pages,
            )
            self._tenants[name] = tenant
        return tenant

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants
