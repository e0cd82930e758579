"""Resource description model (paper section 5.4).

UNICORE's resource model is deliberately simple: a batch request names
the number of CPUs, execution time, memory, and permanent plus temporary
disk space.  Each Vsite publishes a *resource page* — min/max values for
those resources plus system architecture, performance, operating system,
and available software — prepared by the site administrator with a
resource-page editor and stored in ASN.1 (:mod:`repro.asn1`) for the JPA
to embed in the GUI.

- :mod:`repro.resources.model` — :class:`ResourceSet`,
  :class:`ResourceRequest`, :class:`ResourceRange`;
- :mod:`repro.resources.software` — compilers/libraries/packages;
- :mod:`repro.resources.page` — the per-Vsite resource page;
- :mod:`repro.resources.editor` — the administrator's page editor;
- :mod:`repro.resources.check` — request-versus-page validation.
"""

from repro.resources.model import ResourceRange, ResourceRequest, ResourceSet
from repro.resources.software import SoftwareCatalogue, SoftwareItem, SoftwareKind
from repro.resources.page import ResourcePage
from repro.resources.editor import ResourcePageEditor
from repro.resources.check import ResourceCheckResult, check_request
from repro.resources.errors import ResourceError, ResourcePageError, ResourceRequestError

__all__ = [
    "ResourceCheckResult",
    "ResourceError",
    "ResourcePage",
    "ResourcePageEditor",
    "ResourcePageError",
    "ResourceRange",
    "ResourceRequest",
    "ResourceRequestError",
    "ResourceSet",
    "SoftwareCatalogue",
    "SoftwareItem",
    "SoftwareKind",
    "check_request",
]
