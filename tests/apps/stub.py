"""A stub application, and the seven real ones, for tests of the
resource registry and its consumers."""

from repro.apps import (
    Apache,
    Elasticsearch,
    Etcd,
    MongoDB,
    MySQL,
    PostgreSQL,
    Solr,
)
from repro.apps.base import Application
from repro.core import NullController, ResourceType
from repro.sim import Rng

#: The seven backends, for tests that hold of every application.
BACKENDS = (Apache, Elasticsearch, Etcd, MongoDB, MySQL, PostgreSQL, Solr)


class StubApp(Application):
    """An application whose registry holds exactly the given resources:
    one LOCK handle ``stub.<keyword>`` per keyword, standing for one sim
    object or a list of them."""

    name = "stub"

    def __init__(self, env, controller=None, **resources):
        super().__init__(env, controller or NullController(env), Rng(0))
        self.handles = {
            key: self.register_resource(
                key, ResourceType.LOCK,
                *(sims if isinstance(sims, list) else [sims]),
            )
            for key, sims in resources.items()
        }
